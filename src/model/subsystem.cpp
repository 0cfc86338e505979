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
    const Outport& port = *outports_[static_cast<std::size_t>(i)];
    set_out(i, port.in_value(0).as_double());
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

Block::Connection driver(const Block& b, int port, const Block* boundary) {
  Block::Connection c = b.input(port);
  while (c.src != nullptr) {
    if (const auto* in = dynamic_cast<const Inport*>(c.src)) {
      if (in->parent() == nullptr || in->parent() == boundary) break;
      c = in->parent()->input(in->port());
    } else if (dynamic_cast<const Outport*>(c.src) != nullptr) {
      c = c.src->input(0);
    } else {
      break;
    }
  }
  return c;
}

namespace {

bool is_boundary(const Block* b) {
  return dynamic_cast<const Inport*>(b) != nullptr ||
         dynamic_cast<const Outport*>(b) != nullptr;
}

/// The model holding the subsystem \p model's Inports are bound to: the
/// next model up that a driver() walk from \p model can read.
const Model* enclosing(const Model& model) {
  for (const auto& b : model.blocks()) {
    const auto* in = dynamic_cast<const Inport*>(b.get());
    if (in != nullptr && in->parent() != nullptr) return in->parent()->owner();
  }
  return nullptr;
}

}  // namespace

void Schedule::build() {
  epochs_.emplace_back(model_, model_->order_epoch());
  for (Block* b : model_->sorted()) {
    if (dynamic_cast<const Inport*>(b) != nullptr) continue;
    const std::size_t begin = blocks_.size();
    expand(b);
    units_.push_back({b, begin, blocks_.size()});
  }
}

void Schedule::expand(Block* b) {
  auto* sub = dynamic_cast<Subsystem*>(b);
  if (sub != nullptr && dynamic_cast<FunctionCallSubsystem*>(b) == nullptr) {
    epochs_.emplace_back(&sub->inner(), sub->inner().order_epoch());
    const std::size_t index = subsystems_.size();
    subsystems_.push_back({b, blocks_.size(), 0});
    for (Block* inner : sub->inner().sorted()) {
      if (!is_boundary(inner)) expand(inner);
    }
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
  Schedule next(*model_);
  next.build();
  // Every input of the flattened models, the expanded Outports' included
  // (the publishes read them), reads the block that computes it.
  for (const auto& covered : next.epochs_) {
    for (const auto& b : covered.first->blocks()) {
      for (std::size_t i = 0; i < b->sources_.size(); ++i) {
        b->sources_[i] = &Block::value_at(driver(*b, static_cast<int>(i)));
      }
    }
  }
  // Those walks leave the flattened models only through the model's own
  // Inports, so an edit to the models they climb to re-resolves too.
  for (const Model* up = enclosing(*model_); up != nullptr;
       up = enclosing(*up)) {
    next.epochs_.emplace_back(up, up->order_epoch());
  }
  *this = std::move(next);
  return true;
}

void Schedule::flatten() {
  *this = Schedule(*model_);
  build();
  epochs_.clear();
}

void FunctionCallSubsystem::initialize(const SimContext& ctx) {
  // The engine's schedule does not reach into this interior.
  schedule_.refresh();
  Subsystem::initialize(ctx);
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
