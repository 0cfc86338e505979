#include <gtest/gtest.h>

#include <cmath>

#include "blocks/continuous.hpp"
#include "blocks/discrete.hpp"
#include "blocks/math_blocks.hpp"
#include "blocks/sinks.hpp"
#include "blocks/sources.hpp"
#include "core/case_study.hpp"
#include "model/engine.hpp"
#include "model/metrics.hpp"
#include "model/model.hpp"
#include "model/statechart.hpp"
#include "model/subsystem.hpp"
#include "model/value.hpp"

namespace iecd::model {
namespace {

using blocks::ConstantBlock;
using blocks::GainBlock;
using blocks::IntegratorBlock;
using blocks::ScopeBlock;
using blocks::StepBlock;
using blocks::SumBlock;
using blocks::UnitDelayBlock;

// -------------------------------------------------------------------- Value

TEST(Value, QuantizeToIntegerSaturates) {
  const Value v = Value::quantize(300.0, DataType::kUint8, std::nullopt);
  EXPECT_EQ(v.as_int(), 255);
  const Value w = Value::quantize(-5.0, DataType::kUint8, std::nullopt);
  EXPECT_EQ(w.as_int(), 0);
  const Value x = Value::quantize(40000.0, DataType::kInt16, std::nullopt);
  EXPECT_EQ(x.as_int(), 32767);
}

TEST(Value, QuantizeToFixedUsesFormat) {
  const auto fmt = fixpt::FixedFormat::s16(8);
  const Value v = Value::quantize(1.25, DataType::kFixed, fmt);
  EXPECT_EQ(v.type(), DataType::kFixed);
  EXPECT_DOUBLE_EQ(v.as_double(), 1.25);
  EXPECT_THROW(Value::quantize(1.0, DataType::kFixed, std::nullopt),
               std::invalid_argument);
}

TEST(Value, BoolAndDoubleRoundTrip) {
  EXPECT_TRUE(Value::of_bool(true).as_bool());
  EXPECT_EQ(Value::of_double(2.7).as_int(), 3);
  EXPECT_EQ(Value::quantize(0.4, DataType::kBool, std::nullopt).as_bool(),
            true);
  EXPECT_EQ(Value::quantize(0.0, DataType::kBool, std::nullopt).as_bool(),
            false);
}

TEST(Value, StorageBytesForFootprint) {
  EXPECT_EQ(storage_bytes(DataType::kDouble), 8u);
  EXPECT_EQ(storage_bytes(DataType::kInt16), 2u);
  EXPECT_EQ(storage_bytes(DataType::kBool), 1u);
}

// -------------------------------------------------------------------- Model

TEST(ModelGraph, SortedRespectsDataFlow) {
  Model m("t");
  auto& c = m.add<ConstantBlock>("c", 1.0);
  auto& g1 = m.add<GainBlock>("g1", 2.0);
  auto& g2 = m.add<GainBlock>("g2", 3.0);
  m.connect(g1, 0, g2, 0);  // declare g2 first in dependency terms
  m.connect(c, 0, g1, 0);
  const auto& order = m.sorted();
  const auto pos = [&](const Block* b) {
    return std::find(order.begin(), order.end(), b) - order.begin();
  };
  EXPECT_LT(pos(&c), pos(&g1));
  EXPECT_LT(pos(&g1), pos(&g2));
}

TEST(ModelGraph, AlgebraicLoopDetected) {
  Model m("loop");
  auto& g1 = m.add<GainBlock>("g1", 1.0);
  auto& g2 = m.add<GainBlock>("g2", 1.0);
  m.connect(g1, 0, g2, 0);
  m.connect(g2, 0, g1, 0);
  EXPECT_THROW(m.sorted(), std::logic_error);
  const auto diags = m.check();
  EXPECT_TRUE(diags.has_errors());
}

TEST(ModelGraph, DelayBreaksLoop) {
  Model m("fb");
  auto& g = m.add<GainBlock>("g", 0.5);
  auto& d = m.add<UnitDelayBlock>("d", 0.0);
  m.connect(g, 0, d, 0);
  m.connect(d, 0, g, 0);
  EXPECT_NO_THROW(m.sorted());
}

TEST(ModelGraph, UnconnectedInputWarns) {
  Model m("w");
  m.add<GainBlock>("g", 1.0);
  const auto diags = m.check();
  EXPECT_FALSE(diags.has_errors());
  EXPECT_TRUE(diags.has_warnings());
}

TEST(ModelGraph, RemoveDisconnectsDownstream) {
  Model m("r");
  auto& c = m.add<ConstantBlock>("c", 5.0);
  auto& g = m.add<GainBlock>("g", 1.0);
  m.connect(c, 0, g, 0);
  EXPECT_TRUE(m.remove("c"));
  EXPECT_FALSE(g.input_connected(0));
  EXPECT_EQ(m.block_count(), 1u);
}

TEST(ModelGraph, DuplicateNamesRejected) {
  Model m("d");
  m.add<ConstantBlock>("x", 1.0);
  EXPECT_THROW(m.add<GainBlock>("x", 1.0), std::invalid_argument);
}

// ------------------------------------------------------------------- Engine

TEST(Engine, ConstantThroughGain) {
  Model m("cg");
  auto& c = m.add<ConstantBlock>("c", 2.0);
  auto& g = m.add<GainBlock>("g", 3.0);
  auto& scope = m.add<ScopeBlock>("s");
  m.connect(c, 0, g, 0);
  m.connect(g, 0, scope, 0);
  Engine eng(m, {.stop_time = 0.01});
  eng.run();
  EXPECT_DOUBLE_EQ(scope.log().last_value(), 6.0);
  EXPECT_EQ(eng.major_steps(), 10u);  // default 1 ms base
}

TEST(Engine, DiscreteAccumulatorMatchesClosedForm) {
  // y[k+1] = y[k] + T*u with u=1: after 1 s at T=1 ms, y = 1.0.
  Model m("acc");
  auto& c = m.add<ConstantBlock>("u", 1.0);
  auto& integ = m.add<blocks::DiscreteIntegratorBlock>("i", 1.0);
  integ.set_sample_time(SampleTime::discrete(0.001));
  auto& scope = m.add<ScopeBlock>("s");
  m.connect(c, 0, integ, 0);
  m.connect(integ, 0, scope, 0);
  Engine eng(m, {.stop_time = 1.0});
  eng.run();
  EXPECT_NEAR(scope.log().last_value(), 1.0, 1e-3 + 1e-9);
}

TEST(Engine, Rk4IntegratesExponentialDecayAccurately) {
  // x' = -x, x(0) = 1 -> x(1) = e^-1.
  Model m("exp");
  auto& integ = m.add<IntegratorBlock>("x", 1.0);
  auto& g = m.add<GainBlock>("neg", -1.0);
  m.connect(integ, 0, g, 0);
  m.connect(g, 0, integ, 0);
  g.set_sample_time(SampleTime::continuous());
  Engine eng(m, {.stop_time = 1.0, .minor_steps = 4});
  eng.run();
  SimContext ctx{1.0, 1e-3, false};
  integ.output(ctx);
  EXPECT_NEAR(integ.out(0).as_double(), std::exp(-1.0), 1e-9);
}

TEST(Engine, InheritancePropagatesContinuity) {
  Model m("inh");
  auto& integ = m.add<IntegratorBlock>("x", 1.0);
  auto& g = m.add<GainBlock>("g", -1.0);  // inherited: fed by continuous
  m.connect(integ, 0, g, 0);
  m.connect(g, 0, integ, 0);
  Engine eng(m, {.stop_time = 0.5});
  eng.initialize();
  EXPECT_TRUE(g.resolved_continuous());
  // A detached source stays discrete.
  auto& c = m.add<ConstantBlock>("c", 0.0);
  Engine eng2(m, {.stop_time = 0.5});
  eng2.initialize();
  EXPECT_FALSE(c.resolved_continuous());
}

TEST(Engine, SecondOrderOscillatorConservesFrequency) {
  // x'' = -w^2 x -> x(t) = cos(w t); check the value after one full period.
  Model m("osc");
  const double w = 2.0 * 3.14159265358979;  // 1 Hz
  auto& v = m.add<IntegratorBlock>("v", 0.0);
  auto& x = m.add<IntegratorBlock>("x", 1.0);
  auto& g = m.add<GainBlock>("w2", -w * w);
  m.connect(x, 0, g, 0);
  m.connect(g, 0, v, 0);
  m.connect(v, 0, x, 0);
  Engine eng(m, {.stop_time = 1.0, .base_period = 1e-3, .minor_steps = 2});
  eng.run();
  SimContext ctx{1.0, 1e-3, false};
  x.output(ctx);
  EXPECT_NEAR(x.out(0).as_double(), 1.0, 1e-5);
}

TEST(Engine, MultirateHitsSlowBlocksLessOften) {
  Model m("mr");
  auto& c = m.add<ConstantBlock>("c", 1.0);
  auto& fast = m.add<ScopeBlock>("fast");
  auto& slow = m.add<ScopeBlock>("slow");
  fast.set_sample_time(SampleTime::discrete(0.001));
  slow.set_sample_time(SampleTime::discrete(0.005));
  m.connect(c, 0, fast, 0);
  m.connect(c, 0, slow, 0);
  Engine eng(m, {.stop_time = 0.1});
  eng.run();
  EXPECT_EQ(fast.log().size(), 100u);
  EXPECT_EQ(slow.log().size(), 20u);
}

TEST(Engine, SampleOffsetDelaysFirstHit) {
  Model m("off");
  auto& c = m.add<ConstantBlock>("c", 1.0);
  auto& scope = m.add<ScopeBlock>("s");
  scope.set_sample_time(SampleTime::discrete(0.002, 0.001));
  m.connect(c, 0, scope, 0);
  Engine eng(m, {.stop_time = 0.01});
  eng.run();
  ASSERT_FALSE(scope.log().empty());
  EXPECT_DOUBLE_EQ(scope.log().time_at(0), 0.001);
  EXPECT_EQ(scope.log().size(), 5u);  // 1,3,5,7,9 ms
}

TEST(Engine, IncompatibleRateRejected) {
  Model m("bad");
  auto& c = m.add<ConstantBlock>("c", 1.0);
  auto& scope = m.add<ScopeBlock>("s");
  scope.set_sample_time(SampleTime::discrete(0.0015));
  m.connect(c, 0, scope, 0);
  Engine eng(m, {.stop_time = 0.1, .base_period = 1e-3});
  EXPECT_THROW(eng.initialize(), std::logic_error);
}

TEST(Engine, AdvanceToStepsExactly) {
  Model m("adv");
  m.add<ConstantBlock>("c", 1.0);
  Engine eng(m, {.stop_time = 1.0});
  eng.initialize();
  eng.advance_to(0.05);
  EXPECT_NEAR(eng.time(), 0.05, 1e-12);
  eng.advance_to(0.05);  // idempotent
  EXPECT_NEAR(eng.time(), 0.05, 1e-12);
}

// --------------------------------------------------------------- Subsystems

TEST(Subsystem, ClosedLoopThroughSubsystem) {
  // Controller subsystem: out = 2 * in.
  Model m("top");
  auto& sub = m.add<Subsystem>("ctrl", 1, 1);
  auto& inp = sub.inner().add<Inport>("in");
  auto& gain = sub.inner().add<GainBlock>("g", 2.0);
  auto& outp = sub.inner().add<Outport>("out");
  sub.inner().connect(inp, 0, gain, 0);
  sub.inner().connect(gain, 0, outp, 0);
  sub.bind_ports({&inp}, {&outp});

  auto& c = m.add<ConstantBlock>("c", 5.0);
  auto& scope = m.add<ScopeBlock>("s");
  m.connect(c, 0, sub, 0);
  m.connect(sub, 0, scope, 0);
  Engine eng(m, {.stop_time = 0.01});
  eng.run();
  EXPECT_DOUBLE_EQ(scope.log().last_value(), 10.0);
}

TEST(Subsystem, InnerDiscreteStateUpdates) {
  Model m("top");
  auto& sub = m.add<Subsystem>("sys", 1, 1);
  auto& inp = sub.inner().add<Inport>("in");
  auto& delay = sub.inner().add<UnitDelayBlock>("z", 0.0);
  auto& outp = sub.inner().add<Outport>("out");
  sub.inner().connect(inp, 0, delay, 0);
  sub.inner().connect(delay, 0, outp, 0);
  sub.bind_ports({&inp}, {&outp});
  auto& step = m.add<StepBlock>("u", 0.0, 0.0, 1.0);
  auto& scope = m.add<ScopeBlock>("s");
  m.connect(step, 0, sub, 0);
  m.connect(sub, 0, scope, 0);
  Engine eng(m, {.stop_time = 0.005});
  eng.run();
  // First sample sees the delay's initial 0, later ones the delayed step.
  EXPECT_DOUBLE_EQ(scope.log().value_at(0), 0.0);
  EXPECT_DOUBLE_EQ(scope.log().value_at(1), 1.0);
}

TEST(Subsystem, NestedEditAfterInitializeReachesNextStep) {
  // The engine flattens the interior at initialize(); an edit to the nested
  // model afterwards (a new x3 gain takes over the Outport from the x2
  // gain) must still reach the very next step.
  Model m("top");
  auto& sub = m.add<Subsystem>("ctrl", 1, 1);
  auto& inp = sub.inner().add<Inport>("in");
  auto& g2 = sub.inner().add<GainBlock>("g2", 2.0);
  auto& outp = sub.inner().add<Outport>("out");
  sub.inner().connect(inp, 0, g2, 0);
  sub.inner().connect(g2, 0, outp, 0);
  sub.bind_ports({&inp}, {&outp});
  auto& c = m.add<ConstantBlock>("c", 5.0);
  m.connect(c, 0, sub, 0);
  Engine eng(m, {.stop_time = 1.0});
  eng.initialize();
  ASSERT_TRUE(eng.step());
  EXPECT_DOUBLE_EQ(sub.out(0).as_double(), 10.0);

  auto& g3 = sub.inner().add<GainBlock>("g3", 3.0);
  sub.inner().connect(inp, 0, g3, 0);
  sub.inner().connect(g3, 0, outp, 0);
  ASSERT_TRUE(eng.step());
  EXPECT_DOUBLE_EQ(sub.out(0).as_double(), 15.0);
}

TEST(Subsystem, InteriorDiscreteBlockRunsOnSubsystemTick) {
  // An interior block declaring its own 5 ms period runs whenever its 1 ms
  // subsystem runs, and integrates with its declared T = 5 ms.
  Model m("top");
  auto& one = m.add<ConstantBlock>("one", 1.0);
  auto& sub = m.add<Subsystem>("sys", 1, 1);
  sub.set_sample_time(SampleTime::discrete(1e-3));
  auto& inp = sub.inner().add<Inport>("in");
  auto& integ = sub.inner().add<blocks::DiscreteIntegratorBlock>("n", 1.0);
  integ.set_sample_time(SampleTime::discrete(5e-3));
  auto& outp = sub.inner().add<Outport>("out");
  sub.inner().connect(inp, 0, integ, 0);
  sub.inner().connect(integ, 0, outp, 0);
  sub.bind_ports({&inp}, {&outp});
  m.connect(one, 0, sub, 0);
  Engine eng(m, {.stop_time = 1.0});
  eng.initialize();
  EXPECT_DOUBLE_EQ(eng.base_period(), 1e-3);
  EXPECT_DOUBLE_EQ(integ.resolved_period(), 5e-3);
  for (int k = 0; k < 10; ++k) {
    ASSERT_TRUE(eng.step());
    EXPECT_NEAR(sub.out(0).as_double(), 0.005 * k, 1e-12) << "tick " << k;
  }
}

TEST(Subsystem, ContinuousPlantInsideSubsystem) {
  // Plant subsystem integrating its input: y = t for u = 1.
  Model m("top");
  auto& sub = m.add<Subsystem>("plant", 1, 1);
  auto& inp = sub.inner().add<Inport>("u");
  auto& integ = sub.inner().add<IntegratorBlock>("x", 0.0);
  auto& outp = sub.inner().add<Outport>("y");
  sub.inner().connect(inp, 0, integ, 0);
  sub.inner().connect(integ, 0, outp, 0);
  sub.bind_ports({&inp}, {&outp});
  sub.set_sample_time(SampleTime::continuous());
  auto& c = m.add<ConstantBlock>("c", 1.0);
  m.connect(c, 0, sub, 0);
  Engine eng(m, {.stop_time = 1.0});
  eng.run();
  SimContext ctx{1.0, 1e-3, false};
  sub.output(ctx);
  EXPECT_NEAR(sub.out(0).as_double(), 1.0, 1e-9);
}

/// Adds a continuous plant subsystem without direct feedthrough to \p m:
/// y = x, x' = k * u, x(0) = 1.
IntegratorBlock& add_plant(Model& m, double k, Subsystem*& plant) {
  auto& sub = m.add<Subsystem>("plant", 1, 1);
  sub.set_sample_time(SampleTime::continuous());
  sub.set_direct_feedthrough(false);
  auto& inp = sub.inner().add<Inport>("u");
  auto& g = sub.inner().add<GainBlock>("g", k);
  auto& x = sub.inner().add<IntegratorBlock>("x", 1.0);
  auto& outp = sub.inner().add<Outport>("y");
  sub.inner().connect(inp, 0, g, 0);
  sub.inner().connect(g, 0, x, 0);
  sub.inner().connect(x, 0, outp, 0);
  sub.bind_ports({&inp}, {&outp});
  plant = &sub;
  return x;
}

/// Closes x' = -x around a plant from add_plant(..., 1.0) with a continuous
/// -1 gain ordered after the plant.
void close_loop(Model& m, Subsystem& plant) {
  auto& fb = m.add<GainBlock>("fb", -1.0);
  fb.set_sample_time(SampleTime::continuous());
  m.connect(plant, 0, fb, 0);
  m.connect(fb, 0, plant, 0);
}

TEST(Subsystem, NoFeedthroughPlantSeesStageInputsInDerivatives) {
  // x' = -x through a plant subsystem without direct feedthrough whose
  // input is fed back within the solver pass: every RK4 stage must evaluate
  // the plant's interior with that stage's feedback, else the step degrades
  // to first-order accuracy (error ~1e-3 here).
  const auto x_at_1s = [](Model& m, const IntegratorBlock& x) {
    Engine eng(m, {.stop_time = 1.0, .base_period = 1e-2, .minor_steps = 1});
    eng.run();
    return x.out(0).as_double();
  };
  {
    // Closed at top level by a continuous gain ordered after the plant.
    Model m("top");
    Subsystem* plant = nullptr;
    auto& x = add_plant(m, 1.0, plant);
    close_loop(m, *plant);
    EXPECT_NEAR(x_at_1s(m, x), std::exp(-1.0), 1e-6) << "top level";
  }
  {
    // The same loop inside an outer atomic subsystem with feedthrough.
    Model m("top");
    auto& outer = m.add<Subsystem>("outer", 0, 0);
    outer.set_sample_time(SampleTime::continuous());
    Subsystem* plant = nullptr;
    auto& x = add_plant(outer.inner(), 1.0, plant);
    close_loop(outer.inner(), *plant);
    outer.bind_ports({}, {});
    EXPECT_NEAR(x_at_1s(m, x), std::exp(-1.0), 1e-6) << "nested";
  }
  {
    // The -1 gain inside the plant, and the plant wired to its own input.
    Model m("top");
    Subsystem* plant = nullptr;
    auto& x = add_plant(m, -1.0, plant);
    m.connect(*plant, 0, *plant, 0);
    EXPECT_NEAR(x_at_1s(m, x), std::exp(-1.0), 1e-6) << "self-fed";
  }
}

TEST(Subsystem, InportsRunBeforeTheirInterior) {
  // The outer Inport is added after, and so sorts after, the nested
  // subsystem without direct feedthrough that reads it; the nested
  // integrator must still accumulate this tick's input on every tick.
  Model m("top");
  auto& c = m.add<ConstantBlock>("c", 1.0);
  auto& outer = m.add<Subsystem>("outer", 1, 0);
  auto& nested = outer.inner().add<Subsystem>("nested", 1, 0);
  nested.set_direct_feedthrough(false);
  auto& nested_in = nested.inner().add<Inport>("u");
  auto& n = nested.inner().add<blocks::DiscreteIntegratorBlock>("n", 1.0);
  nested.inner().connect(nested_in, 0, n, 0);
  nested.bind_ports({&nested_in}, {});
  auto& outer_in = outer.inner().add<Inport>("u");
  outer.inner().connect(outer_in, 0, nested, 0);
  outer.bind_ports({&outer_in}, {});
  m.connect(c, 0, outer, 0);
  Engine eng(m, {.stop_time = 1.0});
  eng.initialize();
  for (int k = 0; k < 5; ++k) {
    ASSERT_TRUE(eng.step());
    EXPECT_NEAR(n.out(0).as_double(), 1e-3 * k, 1e-12) << "tick " << k;
  }
}

/// Adds a subsystem "s" to \p m computing 1 * its input through \p depth
/// levels of nesting: s{Inport -> [s{...} ->] Gain 1 -> Outport}.
Subsystem& add_pass_through(Model& m, int depth) {
  auto& sub = m.add<Subsystem>("s", 1, 1);
  auto& inp = sub.inner().add<Inport>("in");
  auto& g = sub.inner().add<GainBlock>("g", 1.0);
  auto& outp = sub.inner().add<Outport>("out");
  if (depth > 1) {
    Subsystem& nested = add_pass_through(sub.inner(), depth - 1);
    sub.inner().connect(inp, 0, nested, 0);
    sub.inner().connect(nested, 0, g, 0);
  } else {
    sub.inner().connect(inp, 0, g, 0);
  }
  sub.inner().connect(g, 0, outp, 0);
  sub.bind_ports({&inp}, {&outp});
  return sub;
}

/// Steps \p eng once and returns the output of \p sub.
double step_and_read(Engine& eng, const Subsystem& sub) {
  EXPECT_TRUE(eng.step());
  return sub.out(0).as_double();
}

/// c1 (1.0) drives a pass-through subsystem \p depth levels deep; after
/// initialize(), the parent model alone is edited: c2 (2.0) takes over the
/// input, then c1 and finally c2 are removed.
void check_parent_edits_reach_interior(int depth) {
  Model m("top");
  auto& c1 = m.add<ConstantBlock>("c1", 1.0);
  Subsystem& sub = add_pass_through(m, depth);
  m.connect(c1, 0, sub, 0);
  Engine eng(m, {.stop_time = 1.0});
  eng.initialize();
  EXPECT_DOUBLE_EQ(step_and_read(eng, sub), 1.0);
  auto& c2 = m.add<ConstantBlock>("c2", 2.0);
  m.connect(c2, 0, sub, 0);
  EXPECT_DOUBLE_EQ(step_and_read(eng, sub), 2.0);
  ASSERT_TRUE(m.remove("c1"));
  EXPECT_DOUBLE_EQ(step_and_read(eng, sub), 2.0);
  ASSERT_TRUE(m.remove("c2"));  // the input is now unconnected
  EXPECT_DOUBLE_EQ(step_and_read(eng, sub), 0.0);
}

TEST(Subsystem, ParentReconnectReachesInteriorNextStep) {
  Model m("top");
  auto& c1 = m.add<ConstantBlock>("c1", 1.0);
  Subsystem& sub = add_pass_through(m, 1);
  m.connect(c1, 0, sub, 0);
  Engine eng(m, {.stop_time = 1.0});
  eng.initialize();
  EXPECT_DOUBLE_EQ(step_and_read(eng, sub), 1.0);
  // Only the parent model is edited; the interior must follow.
  auto& c2 = m.add<ConstantBlock>("c2", 2.0);
  m.connect(c2, 0, sub, 0);
  EXPECT_DOUBLE_EQ(step_and_read(eng, sub), 2.0);
}

TEST(Subsystem, RemovedDriverIsNeverRead) {
  check_parent_edits_reach_interior(1);
}

TEST(Subsystem, ParentEditsReachTwoLevelsDown) {
  check_parent_edits_reach_interior(2);
}

TEST(Subsystem, FunctionCallInputReconnectReachesInterior) {
  Model m("top");
  auto& c1 = m.add<ConstantBlock>("c1", 1.0);
  auto& fc = m.add<FunctionCallSubsystem>("fc", 1, 1);
  auto& inp = fc.inner().add<Inport>("in");
  auto& g = fc.inner().add<GainBlock>("g", 3.0);
  auto& outp = fc.inner().add<Outport>("out");
  fc.inner().connect(inp, 0, g, 0);
  fc.inner().connect(g, 0, outp, 0);
  fc.bind_ports({&inp}, {&outp});
  m.connect(c1, 0, fc, 0);
  Engine eng(m, {.stop_time = 1.0});
  eng.initialize();
  const SimContext ctx{0.0, 1e-3, false};
  ASSERT_TRUE(eng.step());
  fc.trigger(ctx);
  EXPECT_DOUBLE_EQ(fc.out(0).as_double(), 3.0);
  auto& c2 = m.add<ConstantBlock>("c2", 2.0);
  m.connect(c2, 0, fc, 0);
  ASSERT_TRUE(eng.step());
  fc.trigger(ctx);
  EXPECT_DOUBLE_EQ(fc.out(0).as_double(), 6.0);
  ASSERT_TRUE(m.remove("c1"));
  ASSERT_TRUE(eng.step());
  fc.trigger(ctx);
  EXPECT_DOUBLE_EQ(fc.out(0).as_double(), 6.0);
  ASSERT_TRUE(m.remove("c2"));
  fc.trigger(ctx);  // no engine step in between
  EXPECT_DOUBLE_EQ(fc.out(0).as_double(), 0.0);
}

/// Adds to \p sub's interior in -> y = 2 u (a state-space block, whose
/// initialize() reads its input) -> out, and binds the ports.
blocks::StateSpaceBlock& add_state_space_interior(Subsystem& sub) {
  auto& inp = sub.inner().add<Inport>("in");
  auto& ss = sub.inner().add<blocks::StateSpaceBlock>(
      "ss", std::vector<std::vector<double>>{{-1.0}}, std::vector<double>{1.0},
      std::vector<double>{0.0}, 2.0);
  auto& outp = sub.inner().add<Outport>("out");
  sub.inner().connect(inp, 0, ss, 0);
  sub.inner().connect(ss, 0, outp, 0);
  sub.bind_ports({&inp}, {&outp});
  return ss;
}

TEST(Subsystem, RemovedDriverIsNotReadByReinitialize) {
  // Removing a subsystem's driver from the parent, then initializing
  // again (or building a new engine): the interior's initializer reads
  // the now unconnected input, never the removed block.
  Model m("top");
  auto& c1 = m.add<ConstantBlock>("c1", 1.0);
  auto& sub = m.add<Subsystem>("s", 1, 1);
  auto& ss = add_state_space_interior(sub);
  m.connect(c1, 0, sub, 0);
  Engine eng(m, {.stop_time = 1.0});
  eng.initialize();
  ASSERT_TRUE(eng.step());
  EXPECT_DOUBLE_EQ(ss.out(0).as_double(), 2.0);
  ASSERT_TRUE(m.remove("c1"));
  eng.initialize();
  EXPECT_DOUBLE_EQ(ss.out(0).as_double(), 0.0);
  ASSERT_TRUE(eng.step());
  EXPECT_DOUBLE_EQ(sub.out(0).as_double(), 0.0);

  auto& c2 = m.add<ConstantBlock>("c2", 3.0);
  m.connect(c2, 0, sub, 0);
  eng.initialize();
  ASSERT_TRUE(m.remove("c2"));
  Engine fresh(m, {.stop_time = 1.0});
  fresh.initialize();
  EXPECT_DOUBLE_EQ(ss.out(0).as_double(), 0.0);
}

TEST(Subsystem, RemovedFunctionCallDriverIsNotReadByReinitialize) {
  // The same for a function-call interior, which the engine's schedule
  // does not reach: the subsystem resolves it before initializing it.
  Model m("top");
  auto& c1 = m.add<ConstantBlock>("c1", 1.0);
  auto& fc = m.add<FunctionCallSubsystem>("fc", 1, 1);
  auto& ss = add_state_space_interior(fc);
  m.connect(c1, 0, fc, 0);
  Engine eng(m, {.stop_time = 1.0});
  eng.initialize();
  ASSERT_TRUE(eng.step());
  fc.trigger(SimContext{0.0, 1e-3, false});
  EXPECT_DOUBLE_EQ(ss.out(0).as_double(), 2.0);
  ASSERT_TRUE(m.remove("c1"));
  eng.initialize();
  EXPECT_DOUBLE_EQ(ss.out(0).as_double(), 0.0);
}

TEST(Subsystem, ServoMilRepeatsBitwiseAroundHil) {
  // MIL, then a target build and HIL (the generated task's schedule over
  // the controller's interior), then MIL again: two schedules over the
  // same blocks must leave the MIL result bit for bit the same.
  for (const bool fixed_point : {false, true}) {
    core::ServoConfig config;
    config.fixed_point = fixed_point;
    core::ServoSystem servo(config);
    const double first = servo.run_mil().iae;
    ASSERT_TRUE(servo.build_target("servo").ok());
    servo.run_hil();
    EXPECT_EQ(servo.run_mil().iae, first) << "fixed point " << fixed_point;
    EXPECT_EQ(first, fixed_point ? 6.3423874395696602 : 6.3502963552479574);
  }
}

TEST(Subsystem, InteriorUpdateReadsItsDriversCurrentStep) {
  // A counter closed through a subsystem without direct feedthrough, which
  // sorts before the +1 feeding it: y = z, z <- y + 1.  The interior delay
  // updates from its driver's value of this step, exactly as the same
  // delay does at top level, so both count 0, 1, 2, ...
  Model m("top");
  auto& sub = m.add<Subsystem>("sub", 1, 1);
  sub.set_direct_feedthrough(false);
  auto& inp = sub.inner().add<Inport>("in");
  auto& z = sub.inner().add<UnitDelayBlock>("z", 0.0);
  auto& outp = sub.inner().add<Outport>("out");
  sub.inner().connect(inp, 0, z, 0);
  sub.inner().connect(z, 0, outp, 0);
  sub.bind_ports({&inp}, {&outp});
  auto& one = m.add<ConstantBlock>("one", 1.0);
  auto& inc = m.add<SumBlock>("inc", "++");
  m.connect(sub, 0, inc, 0);
  m.connect(one, 0, inc, 1);
  m.connect(inc, 0, sub, 0);

  Model flat("flat");
  auto& fz = flat.add<UnitDelayBlock>("z", 0.0);
  auto& fone = flat.add<ConstantBlock>("one", 1.0);
  auto& finc = flat.add<SumBlock>("inc", "++");
  flat.connect(fz, 0, finc, 0);
  flat.connect(fone, 0, finc, 1);
  flat.connect(finc, 0, fz, 0);

  Engine eng(m, {.stop_time = 1.0});
  Engine flat_eng(flat, {.stop_time = 1.0});
  eng.initialize();
  flat_eng.initialize();
  for (int k = 0; k < 5; ++k) {
    ASSERT_TRUE(eng.step());
    ASSERT_TRUE(flat_eng.step());
    EXPECT_EQ(sub.out(0).as_double(), k) << "tick " << k;
    EXPECT_EQ(fz.out(0).as_double(), k) << "tick " << k;
  }
}

/// Records what its one input reads as a double and as a bool.
class ReadProbe : public Block {
 public:
  explicit ReadProbe(std::string name) : Block(std::move(name), 1, 0) {}
  const char* type_name() const override { return "ReadProbe"; }
  void output(const SimContext&) override {
    real = in(0);
    flag = in_bool(0);
  }
  double real = -1.0;
  bool flag = false;
};

TEST(Subsystem, TypedDriverReadsTheSameThroughABoundary) {
  // An interior block reads its typed driver across the boundary, with no
  // double copy in between; as_double() and as_bool() see what that copy
  // held.
  struct Case {
    DataType type;
    std::optional<fixpt::FixedFormat> format;
    double value;
    double real;
    bool flag;
  };
  const auto q8 = fixpt::FixedFormat::s16(8);
  const Case cases[] = {
      {DataType::kInt16, std::nullopt, -1234.4, -1234.0, true},  // QuadDec
      {DataType::kInt16, std::nullopt, 40000.0, 32767.0, true},
      {DataType::kBool, std::nullopt, 0.25, 1.0, true},
      {DataType::kBool, std::nullopt, 0.0, 0.0, false},
      {DataType::kFixed, q8, 1.5, 1.5, true},
      {DataType::kFixed, q8, 0.001, 0.0, false},  // below one LSB
  };
  for (const Case& c : cases) {
    Model m("top");
    auto& src = m.add<ConstantBlock>("src", c.value);
    src.set_output_type(0, c.type, c.format);
    auto& sub = m.add<Subsystem>("sub", 1, 0);
    auto& inp = sub.inner().add<Inport>("in");
    auto& probe = sub.inner().add<ReadProbe>("probe");
    sub.inner().connect(inp, 0, probe, 0);
    sub.bind_ports({&inp}, {});
    m.connect(src, 0, sub, 0);
    Engine eng(m, {.stop_time = 1.0});
    eng.initialize();
    ASSERT_TRUE(eng.step());
    EXPECT_EQ(probe.real, c.real) << to_string(c.type) << " " << c.value;
    EXPECT_EQ(probe.flag, c.flag) << to_string(c.type) << " " << c.value;
  }
}

TEST(Subsystem, ServoScheduleRunsNoNestedBoundary) {
  // The closed loop's schedule runs no Inport or Outport of the controller
  // or the plant: the controller's decoder reads the plant's output.
  core::ServoSystem servo(core::ServoConfig{});
  Schedule schedule(servo.top());
  schedule.refresh();
  for (const Block* b : schedule.blocks()) {
    EXPECT_EQ(dynamic_cast<const Inport*>(b), nullptr) << b->name();
    EXPECT_EQ(dynamic_cast<const Outport*>(b), nullptr) << b->name();
  }
  const Block::Connection d = driver(servo.qdec_block(), 0);
  EXPECT_EQ(d.src, &servo.plant_subsystem());
  EXPECT_EQ(d.src_port, 0);
}

TEST(FunctionCallSubsystem, RunsOnlyWhenTriggered) {
  Model m("top");
  auto& one = m.add<ConstantBlock>("one", 1.0);
  auto& fcall = m.add<FunctionCallSubsystem>("isr", 1, 1);
  auto& inp = fcall.inner().add<Inport>("in");
  auto& cnt = fcall.inner().add<blocks::DiscreteIntegratorBlock>("n", 1.0);
  auto& outp = fcall.inner().add<Outport>("out");
  fcall.inner().connect(inp, 0, cnt, 0);
  fcall.inner().connect(cnt, 0, outp, 0);
  fcall.bind_ports({&inp}, {&outp});
  m.connect(one, 0, fcall, 0);
  Engine eng(m, {.stop_time = 0.01});
  eng.initialize();
  eng.run();
  EXPECT_EQ(fcall.activations(), 0u);  // never triggered
  SimContext ctx{0.01, 1e-3, false};
  fcall.trigger(ctx);
  fcall.trigger(ctx);
  EXPECT_EQ(fcall.activations(), 2u);
  // Two activations accumulated the input once each (T = 1 ms).
  fcall.trigger(ctx);
  EXPECT_NEAR(fcall.out(0).as_double(), 2e-3, 1e-15);
}

TEST(FunctionCallSubsystem, ReadsItsInputAtTriggerTime) {
  // A function-call interior reads the subsystem's input when triggered,
  // and its output holds between activations.
  Model m("top");
  auto& c = m.add<ConstantBlock>("c", 0.5);
  auto& fc = m.add<FunctionCallSubsystem>("fc", 1, 1);
  auto& inp = fc.inner().add<Inport>("in");
  auto& g = fc.inner().add<GainBlock>("g", 3.0);
  auto& outp = fc.inner().add<Outport>("out");
  fc.inner().connect(inp, 0, g, 0);
  fc.inner().connect(g, 0, outp, 0);
  fc.bind_ports({&inp}, {&outp});
  m.connect(c, 0, fc, 0);
  Engine eng(m, {.stop_time = 1.0});
  eng.initialize();
  ASSERT_TRUE(eng.step());
  const SimContext ctx{1e-3, 1e-3, false};
  fc.trigger(ctx);
  EXPECT_EQ(fc.out(0).as_double(), 1.5);
  c.set_value(2.0);
  ASSERT_TRUE(eng.step());
  EXPECT_EQ(fc.out(0).as_double(), 1.5);  // held until the next trigger
  fc.trigger(ctx);
  EXPECT_EQ(fc.out(0).as_double(), 6.0);
}

TEST(EventSource, FiresAttachedSubsystemsAndListeners) {
  Model m("top");
  auto& fcall = m.add<FunctionCallSubsystem>("isr", 0, 0);
  fcall.bind_ports({}, {});
  EventSource evt;
  evt.attach(fcall);
  int listener_hits = 0;
  evt.attach([&](const SimContext&) { ++listener_hits; });
  evt.fire(SimContext{0.0, 1e-3, false});
  EXPECT_EQ(fcall.activations(), 1u);
  EXPECT_EQ(listener_hits, 1);
}

// -------------------------------------------------------------- State chart

TEST(StateChart, ModeSwitchingWithGuards) {
  Model m("chart_host");
  auto& chart = m.add<StateChart>("modes", 1, 1);
  chart.add_state(
      "manual",
      /*entry=*/[](const StateChart::ChartContext& c) { c.set_out(0, 0.0); });
  chart.add_state(
      "automatic",
      [](const StateChart::ChartContext& c) { c.set_out(0, 1.0); });
  chart.add_transition("manual", "automatic",
                       [](const StateChart::ChartContext& c) {
                         return c.in(0) > 0.5;
                       });
  chart.add_transition("automatic", "manual",
                       [](const StateChart::ChartContext& c) {
                         return c.in(0) < 0.5;
                       });
  auto& sw = m.add<StepBlock>("u", 0.005, 0.0, 1.0);
  m.connect(sw, 0, chart, 0);
  auto& scope = m.add<ScopeBlock>("s");
  m.connect(chart, 0, scope, 0);
  Engine eng(m, {.stop_time = 0.01});
  eng.run();
  EXPECT_EQ(chart.active_state(), "automatic");
  EXPECT_DOUBLE_EQ(scope.log().value_at(0), 0.0);
  EXPECT_DOUBLE_EQ(scope.log().last_value(), 1.0);
  EXPECT_EQ(chart.transitions_taken(), 1u);
}

TEST(StateChart, AsynchronousEventChangesStateImmediately) {
  Model m("h");
  auto& chart = m.add<StateChart>("c", 0, 0);
  chart.add_state("idle");
  chart.add_state("fault");
  chart.add_transition("idle", "fault", nullptr, nullptr, "overcurrent");
  chart.initialize(SimContext{});
  EXPECT_EQ(chart.active_state(), "idle");
  chart.send_event("wrong_event", SimContext{});
  EXPECT_EQ(chart.active_state(), "idle");
  chart.send_event("overcurrent", SimContext{});
  EXPECT_EQ(chart.active_state(), "fault");
}

TEST(StateChart, EntryExitActionsRunInOrder) {
  Model m("h");
  auto& chart = m.add<StateChart>("c", 0, 0);
  std::vector<std::string> trace;
  chart.add_state(
      "a", [&](const StateChart::ChartContext&) { trace.push_back("a.entry"); },
      nullptr,
      [&](const StateChart::ChartContext&) { trace.push_back("a.exit"); });
  chart.add_state("b", [&](const StateChart::ChartContext&) {
    trace.push_back("b.entry");
  });
  chart.add_transition("a", "b", nullptr, [&](const StateChart::ChartContext&) {
    trace.push_back("action");
  });
  chart.initialize(SimContext{});
  chart.output(SimContext{});
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[0], "a.entry");
  EXPECT_EQ(trace[1], "action");
  EXPECT_EQ(trace[2], "a.exit");
  EXPECT_EQ(trace[3], "b.entry");
}

// ------------------------------------------------------------------ Metrics

TEST(Metrics, StepMetricsOnSyntheticFirstOrderResponse) {
  // y(t) = 1 - e^(-t/tau), tau = 0.1: rise 10->90% = tau*ln(9) ~ 0.2197 s.
  SampleLog log;
  const double tau = 0.1;
  for (int i = 0; i <= 2000; ++i) {
    const double t = i * 1e-3;
    log.record(t, 1.0 - std::exp(-t / tau));
  }
  const StepMetrics m = analyze_step(log, 1.0);
  EXPECT_NEAR(m.rise_time, tau * std::log(9.0), 2e-3);
  EXPECT_NEAR(m.overshoot_percent, 0.0, 0.1);
  EXPECT_TRUE(m.settled);
  EXPECT_NEAR(m.settling_time, tau * std::log(1.0 / 0.02), 5e-3);
  EXPECT_LT(m.steady_state_error, 1e-3);
}

TEST(Metrics, OvershootDetected) {
  SampleLog log;
  for (int i = 0; i <= 1000; ++i) {
    const double t = i * 1e-3;
    // Underdamped second-order-ish: overshoot to 1.3 then settle at 1.
    log.record(t, 1.0 - std::exp(-5 * t) * std::cos(20 * t) * 1.0 -
                       std::exp(-5 * t) * 0.25);
  }
  const StepMetrics m = analyze_step(log, 1.0);
  EXPECT_GT(m.overshoot_percent, 5.0);
}

TEST(Metrics, IaeOfConstantError) {
  SampleLog log;
  for (int i = 0; i <= 100; ++i) log.record(i * 0.01, 0.5);
  EXPECT_NEAR(integral_absolute_error(log, 1.0), 0.5 * 1.0, 1e-9);
  EXPECT_NEAR(integral_squared_error(log, 1.0), 0.25, 1e-9);
  // ITAE of constant error over [0,1] = 0.5 * integral t dt = 0.25.
  EXPECT_NEAR(integral_time_absolute_error(log, 1.0), 0.25, 1e-6);
}

TEST(Metrics, IaeAgainstTimeVaryingReference) {
  SampleLog y;
  SampleLog r;
  for (int i = 0; i <= 100; ++i) {
    y.record(i * 0.01, 1.0);
    r.record(i * 0.01, 2.0);
  }
  EXPECT_NEAR(integral_absolute_error(y, r), 1.0, 1e-9);
}

TEST(SampleLogBasics, ZohSamplingAndMonotonicity) {
  SampleLog log;
  log.record(0.0, 1.0);
  log.record(1.0, 2.0);
  EXPECT_DOUBLE_EQ(log.sample(0.5), 1.0);
  EXPECT_DOUBLE_EQ(log.sample(1.5), 2.0);
  EXPECT_DOUBLE_EQ(log.sample(-1.0), 1.0);
  EXPECT_THROW(log.record(0.5, 3.0), std::invalid_argument);
}

}  // namespace
}  // namespace iecd::model
