/// \file discrete.hpp
/// Discrete-time blocks: delays, integrators, derivative, transfer
/// function, PID — the controller-side vocabulary of the case study.
#pragma once

#include <algorithm>
#include <deque>
#include <vector>

#include "model/block.hpp"

namespace iecd::blocks {

using model::Block;
using model::EmitContext;
using model::SimContext;

class UnitDelayBlock : public Block {
 public:
  UnitDelayBlock(std::string name, double initial = 0.0);
  const char* type_name() const override { return "UnitDelay"; }
  bool has_direct_feedthrough() const override { return false; }
  void initialize(const SimContext& ctx) override;
  void output(const SimContext& ctx) override;
  void update(const SimContext& ctx) override;
  std::uint32_t state_bytes() const override;
  std::string emit_c(const EmitContext& ctx) const override;
  std::string emit_c_update(const EmitContext& ctx) const override;

 private:
  double initial_;
  double state_ = 0.0;
};

enum class IntegrationMethod { kForwardEuler, kBackwardEuler, kTrapezoidal };

class DiscreteIntegratorBlock : public Block {
 public:
  DiscreteIntegratorBlock(std::string name, double gain = 1.0,
                          IntegrationMethod method =
                              IntegrationMethod::kForwardEuler,
                          double initial = 0.0);
  const char* type_name() const override { return "DiscreteIntegrator"; }
  /// Forward Euler has no direct feedthrough; the other methods do.
  bool has_direct_feedthrough() const override {
    return method_ != IntegrationMethod::kForwardEuler;
  }
  /// Optional output saturation (anti-windup clamping).
  void set_limits(double lower, double upper);
  void initialize(const SimContext& ctx) override;
  void output(const SimContext& ctx) override;
  void update(const SimContext& ctx) override;
  std::uint32_t state_bytes() const override { return 4; }
  mcu::OpCounts step_ops(bool fixed_point) const override;
  std::string emit_c(const EmitContext& ctx) const override;
  std::string emit_c_update(const EmitContext& ctx) const override;

 private:
  double clamp(double v) const;

  double gain_;
  IntegrationMethod method_;
  double initial_;
  double state_ = 0.0;
  double prev_input_ = 0.0;
  bool limited_ = false;
  double lower_ = 0.0, upper_ = 0.0;
};

/// Filtered discrete derivative: K * (u - u_prev) / T.
class DiscreteDerivativeBlock : public Block {
 public:
  DiscreteDerivativeBlock(std::string name, double gain = 1.0);
  const char* type_name() const override { return "DiscreteDerivative"; }
  void initialize(const SimContext& ctx) override;
  void output(const SimContext& ctx) override;
  void update(const SimContext& ctx) override;
  std::uint32_t state_bytes() const override { return 4; }

 private:
  double gain_;
  double prev_ = 0.0;
  double held_ = 0.0;
};

/// Direct-form-II transposed discrete transfer function
/// H(z) = (b0 + b1 z^-1 + ...) / (1 + a1 z^-1 + ...).
class DiscreteTransferFnBlock : public Block {
 public:
  DiscreteTransferFnBlock(std::string name, std::vector<double> num,
                          std::vector<double> den);
  const char* type_name() const override { return "DiscreteTransferFn"; }
  void initialize(const SimContext& ctx) override;
  void output(const SimContext& ctx) override;
  void update(const SimContext& ctx) override;
  std::uint32_t state_bytes() const override;
  mcu::OpCounts step_ops(bool fixed_point) const override;

 private:
  std::vector<double> num_, den_;
  std::vector<double> state_;
  double pending_out_ = 0.0;
};

/// Discrete PID with derivative filtering and back-calculation anti-windup
/// — the controller of the servo case study.
class DiscretePidBlock : public Block {
 public:
  struct Gains {
    double kp = 1.0;
    double ki = 0.0;
    double kd = 0.0;
    double derivative_filter = 10.0;  ///< N in the filtered derivative
  };

  DiscretePidBlock(std::string name, Gains gains, double out_min,
                   double out_max);
  const char* type_name() const override { return "DiscretePID"; }
  void initialize(const SimContext& ctx) override;
  void output(const SimContext& ctx) override;
  void update(const SimContext& ctx) override;
  std::uint32_t state_bytes() const override { return 12; }
  mcu::OpCounts step_ops(bool fixed_point) const override;
  std::string emit_c(const EmitContext& ctx) const override;

  const Gains& gains() const { return gains_; }

  /// Output law before saturation: kp*e + integral + d, where d is the
  /// filtered derivative term (0 for a PI).
  static double output_law(double kp, double e, double integral, double d) {
    return kp * e + integral + d;
  }

  /// Integrator after one period \p T with back-calculation anti-windup:
  /// the integrator bleeds toward the saturated output \p sat when the
  /// actuator limits the unsaturated command \p unsat.
  static double integrator_update(double integral, double kp, double ki,
                                  double T, double e, double sat,
                                  double unsat) {
    const double aw = (sat - unsat) / std::max(kp, 1e-9);
    return integral + ki * T * (e + aw);
  }

 private:
  Gains gains_;
  double out_min_, out_max_;
  double integral_ = 0.0;
  double deriv_state_ = 0.0;
  double prev_error_ = 0.0;
  double unsat_ = 0.0, sat_ = 0.0;
};

/// Sliding-window moving average over the last \p taps samples.
class MovingAverageBlock : public Block {
 public:
  MovingAverageBlock(std::string name, int taps);
  const char* type_name() const override { return "MovingAverage"; }
  void initialize(const SimContext& ctx) override;
  void output(const SimContext& ctx) override;
  void update(const SimContext& ctx) override;
  std::uint32_t state_bytes() const override;
  mcu::OpCounts step_ops(bool fixed_point) const override;

 private:
  int taps_;
  std::deque<double> window_;
  double pending_ = 0.0;
};

}  // namespace iecd::blocks
