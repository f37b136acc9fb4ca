#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/harness.h"

namespace perfbench {

/// One client checks out seeded uniform (store, version) pairs of an
/// SCI-shaped dataset held in four data models and a LyreSplit store.
void RunReadCheckout(const Options& opts, Report* report);

/// Two clients run Refresh -> Checkout -> edit -> Commit loops on one
/// durable repository, in process (`remote` false) or through net::Client
/// over a unix socket to an in-process SessionServer.
void RunCommit(const Options& opts, bool remote, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
