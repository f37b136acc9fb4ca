#include "core/validate.h"

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/string_util.h"

namespace orpheus::core {

namespace {

constexpr char kGraphComponent[] = "version_graph";
constexpr char kStoreComponent[] = "partition_store";
constexpr char kCvdComponent[] = "cvd";

std::string VersionCtx(int v) { return StrFormat("version %d", v); }
std::string PartitionCtx(int p) { return StrFormat("partition %d", p); }

/// True when the children relation contains a cycle. Iterative
/// three-color DFS; `cycle_node` receives one node on a cycle.
bool FindCycle(const VersionGraph& graph, int* cycle_node) {
  const int n = graph.num_versions();
  // 0 = unvisited, 1 = on stack, 2 = done.
  std::vector<char> color(n, 0);
  std::vector<std::pair<int, size_t>> stack;
  for (int start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    color[start] = 1;
    stack.emplace_back(start, 0);
    while (!stack.empty()) {
      auto& [v, next] = stack.back();
      const auto& kids = graph.children(v);
      bool descended = false;
      while (next < kids.size()) {
        int c = kids[next++];
        if (c < 0 || c >= n) continue;  // reported separately
        if (color[c] == 1) {
          *cycle_node = c;
          return true;
        }
        if (color[c] == 0) {
          color[c] = 1;
          stack.emplace_back(c, 0);
          descended = true;
          break;
        }
      }
      if (!descended && next >= kids.size()) {
        color[v] = 2;
        stack.pop_back();
      }
    }
  }
  return false;
}

bool SortedUnique(const std::vector<RecordId>& rids) {
  for (size_t i = 1; i < rids.size(); ++i) {
    if (rids[i] <= rids[i - 1]) return false;
  }
  return true;
}

int64_t SortedOverlap(const std::vector<RecordId>& a,
                      const std::vector<RecordId>& b) {
  int64_t shared = 0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] < b[j]) {
      ++i;
    } else if (a[i] > b[j]) {
      ++j;
    } else {
      ++shared;
      ++i;
      ++j;
    }
  }
  return shared;
}

}  // namespace

void ValidateVersionGraph(const VersionGraph& graph,
                          ValidationReport* report) {
  const int n = graph.num_versions();
  for (int v = 0; v < n; ++v) {
    if (graph.num_records(v) < 0) {
      report->Add(kGraphComponent, VersionCtx(v),
                  StrFormat("negative record count %lld",
                            static_cast<long long>(graph.num_records(v))));
    }
    std::unordered_set<int> seen_parents;
    for (int p : graph.parents(v)) {
      if (p < 0 || p >= n) {
        report->Add(kGraphComponent, VersionCtx(v),
                    StrFormat("parent %d out of range [0, %d)", p, n));
        continue;
      }
      if (p == v) {
        report->Add(kGraphComponent, VersionCtx(v), "self edge");
        continue;
      }
      if (!seen_parents.insert(p).second) {
        report->Add(kGraphComponent, VersionCtx(v),
                    StrFormat("duplicate parent edge from %d", p));
        continue;
      }
      const auto& kids = graph.children(p);
      if (std::find(kids.begin(), kids.end(), v) == kids.end()) {
        report->Add(
            kGraphComponent, VersionCtx(v),
            StrFormat("parent %d does not list %d as a child (adjacency "
                      "asymmetry)",
                      p, v));
      }
      int64_t w = graph.EdgeWeight(p, v);
      if (w < 0) {
        report->Add(kGraphComponent, VersionCtx(v),
                    StrFormat("edge %d -> %d has no recorded weight", p, v));
      } else if (w > graph.num_records(p) || w > graph.num_records(v)) {
        report->Add(
            kGraphComponent, VersionCtx(v),
            StrFormat("edge %d -> %d weight %lld exceeds an endpoint's "
                      "record count",
                      p, v, static_cast<long long>(w)));
      }
    }
    for (int c : graph.children(v)) {
      if (c < 0 || c >= n) {
        report->Add(kGraphComponent, VersionCtx(v),
                    StrFormat("child %d out of range [0, %d)", c, n));
        continue;
      }
      const auto& ps = graph.parents(c);
      if (std::find(ps.begin(), ps.end(), v) == ps.end()) {
        report->Add(
            kGraphComponent, VersionCtx(v),
            StrFormat("child %d does not list %d as a parent (adjacency "
                      "asymmetry)",
                      c, v));
      }
    }
  }
  int cycle_node = -1;
  if (FindCycle(graph, &cycle_node)) {
    report->Add(kGraphComponent, VersionCtx(cycle_node),
                "version graph contains a cycle (not a DAG)");
  }
}

void ValidatePartitionedStore(const PartitionedStore& store,
                              ValidationReport* report) {
  const int n = store.num_versions();
  const int np = store.num_partitions();

  for (int v = 0; v < n; ++v) {
    int p = store.partition_of(v);
    if (p < 0 || p >= np) {
      report->Add(kStoreComponent, VersionCtx(v),
                  StrFormat("mapped to partition %d out of range [0, %d)", p,
                            np));
    }
  }

  // Which partition's versioning table claims each version (disjointness /
  // covering over the version dimension).
  std::vector<int> claimed_by(n, -1);

  for (int p = 0; p < np; ++p) {
    const minidb::Table& data = store.partition_data_table(p);
    const minidb::Table& versioning = store.partition_versioning_table(p);
    const std::string ctx = PartitionCtx(p);

    // Data rids: unique; physically ordered when the flag claims so.
    const auto& rids = data.column(0).int_data();
    std::unordered_set<int64_t> rid_set;
    rid_set.reserve(rids.size() * 2);
    for (size_t r = 0; r < rids.size(); ++r) {
      if (!rid_set.insert(rids[r]).second) {
        report->Add(kStoreComponent, ctx,
                    StrFormat("duplicate rid %lld in data table",
                              static_cast<long long>(rids[r])));
      }
    }
    if (store.partition_rid_clustered(p) &&
        !std::is_sorted(rids.begin(), rids.end())) {
      report->Add(kStoreComponent, ctx,
                  "rid_clustered flag set but data table is not physically "
                  "ordered by rid");
    }

    data.ValidateIndexes(report);
    versioning.ValidateIndexes(report);

    // Versioning rows: vids valid, owned by this partition, rlists sorted
    // and contained in the data table.
    std::unordered_set<int64_t> referenced;
    referenced.reserve(rids.size() * 2);
    for (uint32_t r = 0; r < versioning.num_rows(); ++r) {
      int64_t vid = versioning.column(0).GetInt(r);
      if (vid < 0 || vid >= n) {
        report->Add(kStoreComponent, ctx,
                    StrFormat("versioning row %u has vid %lld out of range "
                              "[0, %d)",
                              r, static_cast<long long>(vid), n));
        continue;
      }
      int v = static_cast<int>(vid);
      if (claimed_by[v] >= 0) {
        report->Add(kStoreComponent, ctx,
                    StrFormat("version %d also stored in partition %d "
                              "(partitions not disjoint)",
                              v, claimed_by[v]));
      } else {
        claimed_by[v] = p;
      }
      if (store.partition_of(v) != p) {
        report->Add(kStoreComponent, ctx,
                    StrFormat("version %d stored here but mapped to "
                              "partition %d",
                              v, store.partition_of(v)));
      }
      // Compressed rlist cells carry internal invariants of their own
      // (chunk ordering, cardinality agreement, no empty containers,
      // canonical container choice) — check them before decompressing.
      const auto& set = versioning.column(1).GetRidSet(r);
      if (set) {
        if (Status s = set->Validate(); !s.ok()) {
          report->Add(kStoreComponent, ctx,
                      StrFormat("version %d compressed rlist invalid: %s", v,
                                s.ToString().c_str()));
          continue;  // its decompressed ids would be untrustworthy
        }
      }
      const std::vector<int64_t> rlist =
          set ? set->ToVector() : versioning.column(1).GetIntArray(r);
      for (size_t i = 0; i < rlist.size(); ++i) {
        if (i > 0 && rlist[i] <= rlist[i - 1]) {
          report->Add(kStoreComponent, ctx,
                      StrFormat("version %d rlist not sorted/unique at "
                                "position %zu",
                                v, i));
          break;
        }
      }
      for (int64_t rid : rlist) {
        if (!rid_set.count(rid)) {
          report->Add(kStoreComponent, ctx,
                      StrFormat("version %d references rid %lld missing "
                                "from the data table",
                                v, static_cast<long long>(rid)));
        } else {
          referenced.insert(rid);
        }
      }
    }

    // Coverage over the record dimension: no orphan payload rows.
    for (int64_t rid : rid_set) {
      if (!referenced.count(rid)) {
        report->Add(kStoreComponent, ctx,
                    StrFormat("data rid %lld not referenced by any version "
                              "(orphan record)",
                              static_cast<long long>(rid)));
      }
    }
  }

  for (int v = 0; v < n; ++v) {
    if (claimed_by[v] < 0) {
      report->Add(kStoreComponent, VersionCtx(v),
                  "missing from every partition's versioning table "
                  "(partitions not covering)");
    }
  }
}

void ValidateCvd(const Cvd& cvd, ValidationReport* report) {
  ValidateVersionGraph(cvd.graph(), report);

  const int n = cvd.num_versions();
  const auto& metadata = cvd.metadata();
  if (static_cast<int>(metadata.size()) != n) {
    report->Add(kCvdComponent, cvd.name(),
                StrFormat("metadata has %zu entries for %d versions",
                          metadata.size(), n));
    return;  // index-aligned checks below would be meaningless
  }

  const size_t num_attr_entries = cvd.attribute_table().size();
  std::vector<std::vector<RecordId>> records(n);
  for (int i = 0; i < n; ++i) {
    const VersionMetadata& meta = metadata[i];
    const VersionId vid = i + 1;
    const std::string ctx = StrFormat("%s v%d", cvd.name().c_str(), vid);
    if (meta.vid != vid) {
      report->Add(kCvdComponent, ctx,
                  StrFormat("metadata vid %d does not match commit order",
                            meta.vid));
    }
    for (VersionId p : meta.parents) {
      if (p < 1 || p >= vid) {
        report->Add(kCvdComponent, ctx,
                    StrFormat("parent %d is not an earlier version", p));
      }
    }
    for (int attr : meta.attributes) {
      if (attr < 0 || attr >= static_cast<int>(num_attr_entries)) {
        report->Add(kCvdComponent, ctx,
                    StrFormat("attribute id %d outside the attribute table",
                              attr));
      }
    }
    if (meta.num_records != cvd.graph().num_records(i)) {
      report->Add(kCvdComponent, ctx,
                  StrFormat("metadata records %lld != graph records %lld",
                            static_cast<long long>(meta.num_records),
                            static_cast<long long>(
                                cvd.graph().num_records(i))));
    }
    auto rids = cvd.VersionRecords(vid);
    if (!rids.ok()) {
      report->Add(kCvdComponent, ctx,
                  StrFormat("backend cannot produce the record set: %s",
                            rids.status().ToString().c_str()));
      continue;
    }
    records[i] = rids.MoveValueOrDie();
    if (!SortedUnique(records[i])) {
      report->Add(kCvdComponent, ctx,
                  "backend record set is not sorted and unique");
    }
    if (static_cast<int64_t>(records[i].size()) != meta.num_records) {
      report->Add(kCvdComponent, ctx,
                  StrFormat("backend stores %zu records, metadata claims "
                            "%lld",
                            records[i].size(),
                            static_cast<long long>(meta.num_records)));
    }
  }

  // Bipartite consistency (Sec. 4.3 / 5.2): every version-graph edge weight
  // must equal the true record overlap of its endpoints.
  for (int v = 0; v < n; ++v) {
    for (int p : cvd.graph().parents(v)) {
      if (p < 0 || p >= n) continue;  // reported by ValidateVersionGraph
      int64_t w = cvd.graph().EdgeWeight(p, v);
      int64_t shared = SortedOverlap(records[p], records[v]);
      if (w >= 0 && w != shared) {
        report->Add(kCvdComponent,
                    StrFormat("%s v%d", cvd.name().c_str(), v + 1),
                    StrFormat("edge weight %lld from v%d != true record "
                              "overlap %lld",
                              static_cast<long long>(w), p + 1,
                              static_cast<long long>(shared)));
      }
    }
  }

  for (const std::string& table : cvd.StagedTables()) {
    for (VersionId p : cvd.StagingParents(table)) {
      if (p < 1 || p > n) {
        report->Add(kCvdComponent, cvd.name(),
                    StrFormat("staging table %s references version %d which "
                              "does not exist",
                              table.c_str(), p));
      }
    }
  }
}

}  // namespace orpheus::core
