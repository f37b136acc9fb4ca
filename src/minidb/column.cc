#include "minidb/column.h"

#include <bit>
#include <cstring>

namespace orpheus::minidb {

namespace {

template <typename T>
void AppendLittleEndian(std::string_view bytes, std::vector<T>* dst) {
  static_assert(sizeof(T) == 8);
  const size_t n = bytes.size() / 8;
  if (n == 0) return;  // memcpy must not see an empty vector's null data()
  const size_t old = dst->size();
  dst->resize(old + n);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(dst->data() + old, bytes.data(), n * 8);
  } else {
    for (size_t i = 0; i < n; ++i) {
      uint64_t v = 0;
      for (int b = 0; b < 8; ++b) {
        v |= uint64_t{static_cast<unsigned char>(bytes[8 * i + b])} << (8 * b);
      }
      std::memcpy(dst->data() + old + i, &v, 8);
    }
  }
}

template <typename T>
void Gather(const std::vector<T>& in, const std::vector<uint32_t>& rows,
            std::vector<T>* out) {
  const size_t old = out->size();
  out->resize(old + rows.size());
  T* dst = out->data() + old;
  for (size_t i = 0; i < rows.size(); ++i) dst[i] = in[rows[i]];
}

}  // namespace

void Column::AppendFixedWidth(std::string_view bytes) {
  assert(type_ == ValueType::kInt64 || type_ == ValueType::kDouble);
  if (type_ == ValueType::kInt64) {
    AppendLittleEndian(bytes, &ints_);
  } else {
    AppendLittleEndian(bytes, &doubles_);
  }
  size_ += bytes.size() / 8;
  if (!valid_.empty()) valid_.resize(size_, 1);
}

void Column::EnsureValidity() {
  if (valid_.empty()) valid_.assign(size_, 1);
}

void Column::AppendNull() {
  EnsureValidity();
  switch (type_) {
    case ValueType::kInt64:
      ints_.push_back(0);
      break;
    case ValueType::kDouble:
      doubles_.push_back(0.0);
      break;
    case ValueType::kString:
      strings_.emplace_back();
      break;
    case ValueType::kIntArray:
      arrays_.emplace_back();
      break;
    case ValueType::kNull:
      break;
  }
  valid_.push_back(0);
  ++size_;
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (type_) {
    case ValueType::kInt64:
      // Accept doubles that arrive after a type widen (paper Sec. 4.3 widens
      // the other way; this keeps the engine forgiving in tests).
      if (v.type() == ValueType::kDouble) {
        AppendInt(static_cast<int64_t>(v.AsDouble()));
      } else {
        AppendInt(v.AsInt());
      }
      break;
    case ValueType::kDouble:
      AppendDouble(v.NumericValue());
      break;
    case ValueType::kString:
      AppendString(v.AsString());
      break;
    case ValueType::kIntArray:
      // A compressed payload flows through as a cheap shared_ptr copy.
      if (const auto* set = v.TryRidSet()) {
        AppendRidSet(*set);
      } else {
        AppendIntArray(v.AsIntArray());
      }
      break;
    case ValueType::kNull:
      AppendNull();
      break;
  }
}

void Column::AppendGather(const Column& in, const std::vector<uint32_t>& rows) {
  if (type_ != in.type_ ||
      (type_ != ValueType::kInt64 && type_ != ValueType::kDouble)) {
    for (uint32_t r : rows) AppendValue(in.GetValue(r));
    return;
  }
  // A null's slot holds zero on both sides, so the values copy as they lie.
  if (type_ == ValueType::kInt64) {
    Gather(in.ints_, rows, &ints_);
  } else {
    Gather(in.doubles_, rows, &doubles_);
  }
  if (!in.valid_.empty()) {
    // The bitmap is allocated only once a null arrives, as AppendNull does.
    uint8_t all_valid = 1;
    for (uint32_t r : rows) all_valid &= in.valid_[r];
    if (!all_valid || !valid_.empty()) {
      EnsureValidity();
      Gather(in.valid_, rows, &valid_);
    }
  } else if (!valid_.empty()) {
    valid_.resize(size_ + rows.size(), 1);
  }
  size_ += rows.size();
}

Value Column::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case ValueType::kInt64:
      return Value(ints_[i]);
    case ValueType::kDouble:
      return Value(doubles_[i]);
    case ValueType::kString:
      return Value(strings_[i]);
    case ValueType::kIntArray:
      return arrays_[i].set ? Value(arrays_[i].set) : Value(arrays_[i].plain);
    case ValueType::kNull:
      return Value::Null();
  }
  return Value::Null();
}

void Column::SetValue(size_t i, const Value& v) {
  if (v.is_null()) {
    EnsureValidity();
    valid_[i] = 0;
    switch (type_) {
      case ValueType::kInt64:
        ints_[i] = 0;
        break;
      case ValueType::kDouble:
        doubles_[i] = 0.0;
        break;
      case ValueType::kString:
        strings_[i] = std::string();
        break;
      case ValueType::kIntArray:
        arrays_[i] = ArrayCell{};
        break;
      case ValueType::kNull:
        break;
    }
    return;
  }
  if (!valid_.empty()) valid_[i] = 1;
  switch (type_) {
    case ValueType::kInt64:
      ints_[i] = v.type() == ValueType::kDouble
                     ? static_cast<int64_t>(v.AsDouble())
                     : v.AsInt();
      break;
    case ValueType::kDouble:
      doubles_[i] = v.NumericValue();
      break;
    case ValueType::kString:
      strings_[i] = v.AsString();
      break;
    case ValueType::kIntArray:
      if (const auto* set = v.TryRidSet()) {
        arrays_[i] = ArrayCell{{}, *set};
      } else {
        arrays_[i] = MakeArrayCell(v.AsIntArray());
      }
      break;
    case ValueType::kNull:
      break;
  }
}

void Column::SwapRemove(size_t i) {
  switch (type_) {
    case ValueType::kInt64:
      ints_[i] = ints_.back();
      ints_.pop_back();
      break;
    case ValueType::kDouble:
      doubles_[i] = doubles_.back();
      doubles_.pop_back();
      break;
    case ValueType::kString:
      strings_[i] = std::move(strings_.back());
      strings_.pop_back();
      break;
    case ValueType::kIntArray:
      arrays_[i] = std::move(arrays_.back());
      arrays_.pop_back();
      break;
    case ValueType::kNull:
      break;
  }
  if (!valid_.empty()) {
    valid_[i] = valid_.back();
    valid_.pop_back();
  }
  --size_;
}

Status Column::Widen(ValueType to) {
  if (to == type_) return Status::OK();
  if (type_ == ValueType::kInt64 && to == ValueType::kDouble) {
    doubles_.reserve(ints_.size());
    for (int64_t v : ints_) doubles_.push_back(static_cast<double>(v));
    ints_.clear();
    ints_.shrink_to_fit();
    type_ = to;
    return Status::OK();
  }
  if ((type_ == ValueType::kInt64 || type_ == ValueType::kDouble) &&
      to == ValueType::kString) {
    strings_.reserve(size_);
    for (size_t i = 0; i < size_; ++i) {
      strings_.push_back(type_ == ValueType::kInt64
                             ? std::to_string(ints_[i])
                             : std::to_string(doubles_[i]));
    }
    ints_.clear();
    ints_.shrink_to_fit();
    doubles_.clear();
    doubles_.shrink_to_fit();
    type_ = to;
    return Status::OK();
  }
  return Status::NotSupported("unsupported column widening");
}

uint64_t Column::StorageBytes() const {
  uint64_t bytes = 0;
  switch (type_) {
    case ValueType::kInt64:
      bytes = ints_.size() * 8;
      break;
    case ValueType::kDouble:
      bytes = doubles_.size() * 8;
      break;
    case ValueType::kString:
      for (const auto& s : strings_) bytes += s.size() + 4;
      break;
    case ValueType::kIntArray:
      for (const auto& a : arrays_) {
        bytes += a.set ? a.set->SizeBytes() + 16 : a.plain.size() * 8 + 16;
      }
      break;
    case ValueType::kNull:
      break;
  }
  bytes += valid_.size();
  return bytes;
}

}  // namespace orpheus::minidb
