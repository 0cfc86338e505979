/// \file dc_motor.hpp
/// The case-study plant: a mechanically commutated DC motor driven by a
/// power transistor switched by PWM (paper Section 7).  Electrical and
/// mechanical dynamics:
///   L di/dt = u - R i - Ke w
///   J dw/dt = Kt i - b w - tau_load
///   dtheta/dt = w
/// Two couplings are provided: a model::Block for MIL simulation inside the
/// plant subsystem, and an event-world component (lazy RK4 integrator over
/// a ZohSignal voltage input) for HIL co-simulation against the simulated
/// PWM peripheral.
#pragma once

#include <functional>

#include "model/block.hpp"
#include "sim/world.hpp"
#include "sim/zoh_signal.hpp"

namespace iecd::plant {

struct DcMotorParams {
  double resistance = 2.0;      ///< R [ohm]
  double inductance = 2.5e-3;   ///< L [H]
  double kt = 0.05;             ///< torque constant [N m / A]
  double ke = 0.05;             ///< back-EMF constant [V s / rad]
  double inertia = 2.0e-5;      ///< J [kg m^2]
  double damping = 1.0e-5;      ///< viscous friction b [N m s / rad]
  double supply_voltage = 24.0; ///< H-bridge rail [V]
};

/// External load torque as a function of time and speed.
using LoadTorque = std::function<double(double t, double omega)>;

/// Shared dynamics: state = {current, omega, theta}.
struct DcMotorDynamics {
  DcMotorParams params;

  /// Armature current slope di/dt = (u - R i - Ke w) / L.
  static double current_slope(double voltage, double current, double omega,
                              double resistance, double ke,
                              double inductance) {
    return (voltage - resistance * current - ke * omega) / inductance;
  }

  /// Shaft acceleration dw/dt = (Kt i - b w - tau) / J.
  static double speed_slope(double current, double omega, double load_torque,
                            double kt, double damping, double inertia) {
    return (kt * current - damping * omega - load_torque) / inertia;
  }

  void derivatives(const double state[3], double voltage, double load_torque,
                   double dx[3]) const;
};

/// MIL plant block: input 0 = armature voltage [V], outputs 0..2 = speed
/// [rad/s], angle [rad], current [A].
class DcMotorBlock : public model::Block {
 public:
  DcMotorBlock(std::string name, DcMotorParams params);
  const char* type_name() const override { return "DCMotor"; }
  bool has_direct_feedthrough() const override { return false; }

  void set_load(LoadTorque load) { load_ = std::move(load); }

  void initialize(const model::SimContext& ctx) override;
  void output(const model::SimContext& ctx) override;
  int continuous_state_count() const override { return 3; }
  void read_states(std::span<double> into) const override;
  void write_states(std::span<const double> from) override;
  void derivatives(const model::SimContext& ctx,
                   std::span<double> dx) const override;

  const DcMotorParams& params() const { return dynamics_.params; }

 private:
  DcMotorDynamics dynamics_;
  LoadTorque load_;
  double state_[3] = {0, 0, 0};
};

/// HIL plant: lives in the co-simulation world, integrates lazily up to any
/// queried time using the PWM's zero-order-hold average output as the
/// armature voltage (duty * supply, sign from a direction input).
class DcMotorSim : public sim::Component {
 public:
  DcMotorSim(sim::World& world, DcMotorParams params,
             std::string name = "motor");

  const std::string& name() const override { return name_; }
  void reset() override;

  /// Voltage source: a ZohSignal whose value is the *duty ratio* in [0, 1];
  /// armature voltage = duty * supply (times direction()).
  void drive_from_duty(const sim::ZohSignal* duty);
  /// Direction input (+1 / -1), e.g. from an H-bridge direction GPIO.
  void set_direction_source(std::function<double()> dir);
  void set_load(LoadTorque load) { load_ = std::move(load); }

  /// Integrates internally up to \p t (idempotent for t <= last).
  void advance_to(sim::SimTime t);

  double current() const { return state_[0]; }
  double speed() const { return state_[1]; }     ///< [rad/s]
  double angle() const { return state_[2]; }     ///< [rad], unwrapped

  double speed_at(sim::SimTime t);
  double angle_at(sim::SimTime t);

  /// Internal integration step (default 20 us).
  void set_max_step(sim::SimTime h);

 private:
  double voltage_at(sim::SimTime t) const;

  std::string name_;
  DcMotorDynamics dynamics_;
  const sim::ZohSignal* duty_ = nullptr;
  std::function<double()> direction_;
  LoadTorque load_;
  double state_[3] = {0, 0, 0};
  sim::SimTime last_ = 0;
  sim::SimTime max_step_ = sim::microseconds(20);
};

}  // namespace iecd::plant
