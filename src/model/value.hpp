/// \file value.hpp
/// Typed signal values.  Simulink's default signal type is double, but the
/// paper's case study targets a 16-bit MCU without an FPU, so signals can
/// also carry integers or fixed-point values; every block output declares
/// its type and values are quantized/saturated on write, reproducing the
/// fixed-point design flow of Section 7.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "fixpt/format.hpp"
#include "fixpt/value.hpp"

namespace iecd::model {

enum class DataType {
  kDouble,
  kBool,
  kInt8,
  kUint8,
  kInt16,
  kUint16,
  kInt32,
  kUint32,
  kFixed,  ///< fixed-point with an attached FixedFormat
};

const char* to_string(DataType type);

/// Storage size on the target in bytes (RAM footprint accounting).
std::uint32_t storage_bytes(DataType type);

/// True for the integer family (not bool, not fixed).
bool is_integer(DataType type);

/// Saturation limits for integer types.
std::int64_t int_min_of(DataType type);
std::int64_t int_max_of(DataType type);

/// A scalar signal value.  Small enough to copy freely.
class Value {
 public:
  Value() = default;

  static Value of_double(double v);
  static Value of_bool(bool v);
  static Value of_int(DataType type, std::int64_t v);
  static Value of_fixed(fixpt::FixedValue v);

  /// Converts \p real into \p type (quantizing/saturating).  \p fmt is
  /// required for kFixed.
  static Value quantize(double real, DataType type,
                        const std::optional<fixpt::FixedFormat>& fmt);

  DataType type() const { return type_; }

  /// Hot-path store for the dominant signal type: equivalent to
  /// `*this = quantize(v, kDouble, nullopt)` without the switch or the
  /// temporary (used by the engine's major-step write path).
  void assign_double(double v) {
    type_ = DataType::kDouble;
    d_ = v;
  }

  double as_double() const;
  bool as_bool() const;
  std::int64_t as_int() const;

  std::string to_string() const;

 private:
  DataType type_ = DataType::kDouble;
  double d_ = 0.0;
  std::int64_t i_ = 0;
  fixpt::FixedValue fixed_;
};

}  // namespace iecd::model
