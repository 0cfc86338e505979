#include "model/subsystem.hpp"

#include <algorithm>
#include <stdexcept>

namespace iecd::model {

Subsystem::Subsystem(std::string name, int inputs, int outputs)
    : Block(std::move(name), inputs, outputs), inner_(this->name() + "/inner") {}

void Subsystem::bind_ports(std::vector<Inport*> inports,
                           std::vector<Outport*> outports) {
  if (static_cast<int>(inports.size()) != input_count() ||
      static_cast<int>(outports.size()) != output_count()) {
    throw std::invalid_argument(name() +
                                ": port binding does not match port counts");
  }
  for (std::size_t i = 0; i < inports.size(); ++i) {
    inports[i]->parent_ = this;
    inports[i]->port_ = static_cast<int>(i);
  }
  outports_ = std::move(outports);
  ports_bound_ = true;
}

void Subsystem::initialize(const SimContext& ctx) {
  if (!ports_bound_ && (input_count() > 0 || output_count() > 0)) {
    throw std::logic_error(name() + ": bind_ports() not called");
  }
  for (Block* b : inner_.sorted()) {
    // Interior blocks inherit the subsystem's resolved rate unless they
    // declared something explicit.
    if (b->sample_time().kind == SampleTime::Kind::kInherited) {
      b->set_resolved_period(resolved_period());
      b->set_resolved_continuous(resolved_continuous());
    } else if (b->sample_time().kind == SampleTime::Kind::kDiscrete) {
      b->set_resolved_period(b->sample_time().period);
      b->set_resolved_continuous(false);
    } else {
      b->set_resolved_continuous(true);
    }
    b->initialize(ctx);
  }
}

void Subsystem::output(const SimContext&) {
  for (int i = 0; i < output_count(); ++i) {
    set_out_value(i, outports_[static_cast<std::size_t>(i)]->out(0));
  }
}

mcu::OpCounts Subsystem::step_ops(bool fixed_point) const {
  mcu::OpCounts total;
  for (const auto& b : inner_.blocks()) total += b->step_ops(fixed_point);
  return total;
}

std::uint32_t Subsystem::state_bytes() const {
  std::uint32_t total = 0;
  for (const auto& b : inner_.blocks()) total += b->state_bytes();
  return total;
}

namespace {

/// \p model's sorted order with its Inports moved to the front: they are
/// sources, so this keeps every data-flow constraint.
std::vector<Block*> execution_order(const Model& model) {
  std::vector<Block*> order;
  for (const bool inports : {true, false}) {
    for (Block* b : model.sorted()) {
      if ((dynamic_cast<const Inport*>(b) != nullptr) == inports) {
        order.push_back(b);
      }
    }
  }
  return order;
}

}  // namespace

void Schedule::expand(Block* b) {
  auto* sub = dynamic_cast<Subsystem*>(b);
  if (sub != nullptr && dynamic_cast<FunctionCallSubsystem*>(b) == nullptr) {
    epochs_.emplace_back(&sub->inner(), sub->inner().order_epoch());
    const std::size_t index = subsystems_.size();
    subsystems_.push_back({b, blocks_.size(), 0});
    for (Block* inner : execution_order(sub->inner())) expand(inner);
    subsystems_[index].end = blocks_.size() + 1;
  }
  blocks_.push_back(b);
}

bool Schedule::refresh() {
  // Parents are checked before children, so a nested model whose
  // subsystem was removed is never read: its parent's epoch moved first.
  const bool stale = epochs_.empty() ||
                     std::ranges::any_of(epochs_, [](const auto& e) {
                       return e.first->order_epoch() != e.second;
                     });
  if (!stale) return false;
  // Built aside, so a sort that throws leaves this schedule as it was.
  Schedule next(model_);
  next.epochs_.emplace_back(&model_, model_.order_epoch());
  for (Block* b : execution_order(model_)) {
    const std::size_t begin = next.blocks_.size();
    next.expand(b);
    next.units_.push_back({b, begin, next.blocks_.size()});
  }
  blocks_.swap(next.blocks_);
  units_.swap(next.units_);
  subsystems_.swap(next.subsystems_);
  epochs_.swap(next.epochs_);
  return true;
}

void FunctionCallSubsystem::trigger(const SimContext& ctx) {
  schedule_.refresh();
  schedule_.outputs(ctx);
  Subsystem::output(ctx);
  schedule_.updates(ctx);
  ++activations_;
}

void EventSource::attach(FunctionCallSubsystem& subsystem) {
  FunctionCallSubsystem* target = &subsystem;
  listeners_.push_back(
      [target](const SimContext& ctx) { target->trigger(ctx); });
}

void EventSource::attach(std::function<void(const SimContext&)> listener) {
  listeners_.push_back(std::move(listener));
}

void EventSource::fire(const SimContext& ctx) {
  for (auto& l : listeners_) l(ctx);
}

}  // namespace iecd::model
