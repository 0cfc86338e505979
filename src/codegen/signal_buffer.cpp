#include "codegen/signal_buffer.hpp"

#include <stdexcept>

namespace iecd::codegen {

std::size_t SignalBuffer::add_input(const std::string& name) {
  input_names_.push_back(name);
  inputs_.push_back(0.0);
  return inputs_.size() - 1;
}

std::size_t SignalBuffer::add_output(const std::string& name) {
  output_names_.push_back(name);
  outputs_.push_back(0.0);
  return outputs_.size() - 1;
}

void SignalBuffer::set_input(std::size_t index, double value) {
  inputs_.at(index) = value;
}

void SignalBuffer::set_inputs(const std::vector<double>& values) {
  set_inputs(std::span<const double>(values));
}

void SignalBuffer::set_inputs(std::span<const double> values) {
  for (std::size_t i = 0; i < values.size() && i < inputs_.size(); ++i) {
    inputs_[i] = values[i];
  }
}

double SignalBuffer::input(std::size_t index) const {
  return inputs_.at(index);
}

double SignalBuffer::input(const std::string& name) const {
  for (std::size_t i = 0; i < input_names_.size(); ++i) {
    if (input_names_[i] == name) return inputs_[i];
  }
  throw std::invalid_argument("SignalBuffer: unknown input " + name);
}

void SignalBuffer::set_output(std::size_t index, double value) {
  outputs_.at(index) = value;
}

void SignalBuffer::set_output(const std::string& name, double value) {
  for (std::size_t i = 0; i < output_names_.size(); ++i) {
    if (output_names_[i] == name) {
      outputs_[i] = value;
      return;
    }
  }
  throw std::invalid_argument("SignalBuffer: unknown output " + name);
}

double SignalBuffer::output(std::size_t index) const {
  return outputs_.at(index);
}

std::vector<double> SignalBuffer::outputs() const { return outputs_; }

}  // namespace iecd::codegen
