/// \file c_emitter.hpp
/// Renders the generated application as readable C sources, mirroring what
/// RTW Embedded Coder produces: a model step function assembled from the
/// per-block emitters ("TLC scripts") in the order of the controller's
/// model::Schedule (nested subsystems flattened), a main skeleton
/// with the interrupt infrastructure, and the bean drivers from the PE
/// side.  The sources are for inspection and line/size accounting; the
/// executable form of the application is the task closures.
#pragma once

#include <map>
#include <string>

#include "beans/bean_project.hpp"
#include "model/subsystem.hpp"

namespace iecd::codegen {

struct EmitterOptions {
  std::string app_name = "model";
  bool fixed_point = false;
  bool pil = false;
  double period_s = 0.001;
  /// Hardware-access API flavour (the paper's two block-set variants).
  beans::DriverApi api = beans::DriverApi::kProcessorExpert;
};

class CEmitter {
 public:
  CEmitter(const model::Subsystem& controller,
           const beans::BeanProject& project, EmitterOptions options);

  /// Emits all files: <app>.h, <app>.c, main.c plus the bean drivers.
  std::map<std::string, std::string> emit() const;

 private:
  std::string emit_step_source() const;
  std::string emit_header() const;
  std::string emit_main() const;

  const model::Subsystem& controller_;
  const beans::BeanProject& project_;
  EmitterOptions options_;
};

}  // namespace iecd::codegen
