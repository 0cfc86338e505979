#include "plant/dc_motor.hpp"

#include <algorithm>
#include <cmath>

#include "util/rk4.hpp"

namespace iecd::plant {

void DcMotorDynamics::derivatives(const double state[3], double voltage,
                                  double load_torque, double dx[3]) const {
  const double i = state[0];
  const double w = state[1];
  dx[0] = current_slope(voltage, i, w, params.resistance, params.ke,
                        params.inductance);
  dx[1] = speed_slope(i, w, load_torque, params.kt, params.damping,
                      params.inertia);
  dx[2] = w;
}

DcMotorBlock::DcMotorBlock(std::string name, DcMotorParams params)
    : Block(std::move(name), 1, 3) {
  dynamics_.params = params;
  set_sample_time(model::SampleTime::continuous());
}

void DcMotorBlock::initialize(const model::SimContext& ctx) {
  state_[0] = state_[1] = state_[2] = 0.0;
  output(ctx);
}

void DcMotorBlock::output(const model::SimContext&) {
  set_out(0, state_[1]);
  set_out(1, state_[2]);
  set_out(2, state_[0]);
}

void DcMotorBlock::read_states(std::span<double> into) const {
  std::copy(state_, state_ + 3, into.begin());
}

void DcMotorBlock::write_states(std::span<const double> from) {
  std::copy(from.begin(), from.begin() + 3, state_);
}

void DcMotorBlock::derivatives(const model::SimContext& ctx,
                               std::span<double> dx) const {
  const double u = in(0);
  const double tau = load_ ? load_(ctx.t, state_[1]) : 0.0;
  double out[3];
  dynamics_.derivatives(state_, u, tau, out);
  std::copy(out, out + 3, dx.begin());
}

DcMotorSim::DcMotorSim(sim::World& world, DcMotorParams params,
                       std::string name)
    : name_(std::move(name)) {
  dynamics_.params = params;
  world.attach(*this);
}

void DcMotorSim::reset() {
  state_[0] = state_[1] = state_[2] = 0.0;
  last_ = 0;
}

void DcMotorSim::drive_from_duty(const sim::ZohSignal* duty) { duty_ = duty; }

void DcMotorSim::set_direction_source(std::function<double()> dir) {
  direction_ = std::move(dir);
}

void DcMotorSim::set_max_step(sim::SimTime h) {
  max_step_ = h > 0 ? h : sim::microseconds(20);
}

double DcMotorSim::voltage_at(sim::SimTime t) const {
  const double duty = duty_ ? duty_->value_at(t) : 0.0;
  const double dir = direction_ ? direction_() : 1.0;
  return duty * dynamics_.params.supply_voltage * dir;
}

void DcMotorSim::advance_to(sim::SimTime t) {
  while (last_ < t) {
    const sim::SimTime step = std::min<sim::SimTime>(max_step_, t - last_);
    const double h = sim::to_seconds(step);
    const double t0 = sim::to_seconds(last_);
    // The duty is piecewise constant; sampling at the interval midpoint
    // limits the error when a change lands inside the step.
    const double u = voltage_at(last_ + step / 2);
    // Shared classic RK4 (util/rk4.hpp): same stage candidates, stage
    // times and combination weights the inline loops always used —
    // tests/batch_test.cpp locks the trajectory bits.
    util::rk4_step(state_, t0, h,
                   [&](double time, const double* y, double* dx) {
                     dynamics_.derivatives(y, u,
                                           load_ ? load_(time, y[1]) : 0.0,
                                           dx);
                   });
    last_ += step;
  }
}

double DcMotorSim::speed_at(sim::SimTime t) {
  advance_to(t);
  return state_[1];
}

double DcMotorSim::angle_at(sim::SimTime t) {
  advance_to(t);
  return state_[2];
}

}  // namespace iecd::plant
