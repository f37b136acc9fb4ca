#include "minidb/value.h"

#include "common/ridset.h"
#include "common/string_util.h"

namespace orpheus::minidb {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull: return "null";
    case ValueType::kInt64: return "int64";
    case ValueType::kDouble: return "double";
    case ValueType::kString: return "string";
    case ValueType::kIntArray: return "int[]";
  }
  return "?";
}

namespace {

/// The ids of an int-array value, decompressed when it is held as a set.
std::vector<int64_t> IntArrayIds(const Value& v) {
  if (const auto* set = v.TryRidSet()) return (*set)->ToVector();
  return v.AsIntArray();
}

}  // namespace

bool Value::operator==(const Value& other) const {
  if (type() != other.type()) return false;
  if (type() != ValueType::kIntArray) return var_ == other.var_;
  const auto* a = TryRidSet();
  const auto* b = other.TryRidSet();
  // Compressed sets are canonical, so same-representation equality is a
  // cheap structural compare; mixed representations compare element-wise.
  if (a && b) return (*a == *b) || (**a == **b);
  if (!a && !b) return AsIntArray() == other.AsIntArray();
  return IntArrayIds(*this) == IntArrayIds(other);
}

bool Value::operator<(const Value& other) const {
  ValueType a = type();
  ValueType b = other.type();
  // Nulls first.
  if (a == ValueType::kNull || b == ValueType::kNull) {
    return a == ValueType::kNull && b != ValueType::kNull;
  }
  bool a_num = a == ValueType::kInt64 || a == ValueType::kDouble;
  bool b_num = b == ValueType::kInt64 || b == ValueType::kDouble;
  if (a_num && b_num) return NumericValue() < other.NumericValue();
  if (a != b) return static_cast<int>(a) < static_cast<int>(b);
  if (a == ValueType::kString) return AsString() < other.AsString();
  if (a == ValueType::kIntArray) {
    return IntArrayIds(*this) < IntArrayIds(other);
  }
  return false;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kInt64:
      return std::to_string(AsInt());
    case ValueType::kDouble:
      return StrFormat("%g", AsDouble());
    case ValueType::kString:
      return AsString();
    case ValueType::kIntArray: {
      std::string out = "{";
      const std::vector<int64_t> arr = IntArrayIds(*this);
      for (size_t i = 0; i < arr.size(); ++i) {
        if (i) out += ",";
        out += std::to_string(arr[i]);
      }
      out += "}";
      return out;
    }
  }
  return "?";
}

}  // namespace orpheus::minidb
