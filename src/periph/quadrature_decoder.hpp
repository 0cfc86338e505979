/// \file quadrature_decoder.hpp
/// Quadrature decoder peripheral: counts edges of the two phase-shifted
/// encoder signals (4x decoding — every edge of A and B counts) with
/// direction, plus an index-pulse input that can latch or clear the
/// position register.  The case-study feedback path: IRC encoder with 100
/// lines -> 400 counts per revolution.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

#include "periph/peripheral.hpp"

namespace iecd::periph {

/// Ideal-decoder ablation: exact fractional counts of a decoder with
/// \p cpr counts per revolution, no floor, no wrap.
inline double ideal_counts(double angle_rad, double cpr) {
  return angle_rad / (2.0 * std::numbers::pi) * cpr;
}

/// Latches a shaft angle into the 16-bit position register: floor to whole
/// counts, widen to int64, keep the low 16 bits (two's-complement wrap,
/// like the hardware).  A count outside the int64 range (a non-finite or
/// blown-up angle) latches 0 instead of an undefined float->int conversion.
inline std::int16_t latch_counts(double angle_rad, double cpr) {
  const double counts = std::floor(ideal_counts(angle_rad, cpr));
  if (!(counts >= -0x1p63 && counts < 0x1p63)) return 0;
  const auto wide = static_cast<std::int64_t>(counts);
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(wide & 0xFFFF));
}

/// Count change between two register samples, unwrapped across the 16-bit
/// rollover: the difference taken modulo 2^16 into [-32768, 32768].
inline double count_delta(double counts, double prev_counts) {
  return std::remainder(counts - prev_counts, 65536.0);
}

struct QuadDecConfig {
  bool clear_on_index = false;      ///< reset position at the index pulse
  mcu::IrqVector index_vector = -1; ///< <0: no index interrupt
};

class QuadDecPeripheral : public Peripheral {
 public:
  QuadDecPeripheral(mcu::Mcu& mcu, QuadDecConfig config,
                    std::string name = "qdec");

  const QuadDecConfig& config() const { return config_; }

  /// Feeds a single decoded edge: +1 forward, -1 reverse.  Called by the
  /// encoder model, edge-by-edge in event-accurate mode.
  void edge(int direction);

  /// Feeds a batch of \p delta counts at once (polled coupling mode used
  /// for high edge rates; see plant::IncrementalEncoder).
  void add_counts(std::int32_t delta);

  /// Index (once-per-revolution) pulse.
  void index_pulse();

  /// Signed position register (16-bit wrap-around, like the hardware).
  std::int16_t position() const { return position_; }

  /// Full-resolution software-extended position (no wrap).
  std::int64_t extended_position() const { return extended_; }

  /// Position latched at the last index pulse.
  std::int16_t index_latch() const { return index_latch_; }

  std::uint64_t index_pulses() const { return index_pulses_; }

  void zero();

  void reset() override;

 private:
  QuadDecConfig config_;
  std::int16_t position_ = 0;
  std::int64_t extended_ = 0;
  std::int16_t index_latch_ = 0;
  std::uint64_t index_pulses_ = 0;
};

}  // namespace iecd::periph
