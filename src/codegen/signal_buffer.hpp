/// \file signal_buffer.hpp
/// The PIL communication buffer: in the processor-in-the-loop code variant
/// "the inputs are not measured by the hardware peripherals but their
/// values are obtained via the communication line" (paper Section 6).
/// Input slots are filled by the target agent when a frame arrives; output
/// slots are collected into the response frame after the controller step.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace iecd::codegen {

class SignalBuffer {
 public:
  /// Registers a named slot; returns its index.  Direction is a convention:
  /// inputs come from the plant, outputs go back to it.
  std::size_t add_input(const std::string& name);
  std::size_t add_output(const std::string& name);

  std::size_t input_count() const { return inputs_.size(); }
  std::size_t output_count() const { return outputs_.size(); }

  void set_input(std::size_t index, double value);
  void set_inputs(const std::vector<double>& values);
  /// Allocation-free fill: copies min(values.size(), input_count()) values.
  void set_inputs(std::span<const double> values);
  double input(std::size_t index) const;
  double input(const std::string& name) const;

  void set_output(std::size_t index, double value);
  void set_output(const std::string& name, double value);
  double output(std::size_t index) const;
  std::vector<double> outputs() const;
  /// Allocation-free view of the output slots.
  const std::vector<double>& output_values() const { return outputs_; }

  const std::vector<std::string>& input_names() const { return input_names_; }
  const std::vector<std::string>& output_names() const {
    return output_names_;
  }

 private:
  std::vector<double> inputs_;
  std::vector<double> outputs_;
  std::vector<std::string> input_names_;
  std::vector<std::string> output_names_;
};

}  // namespace iecd::codegen
