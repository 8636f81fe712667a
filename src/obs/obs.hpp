// Umbrella header for instrumentation sites.
//
// Every site gates span emission at run time on obs::active_trace(sim) —
// one pointer load and test when no session is attached or the session is
// disabled.
#pragma once

#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace dyncdn::obs {

// The session attached to this simulator, or nullptr when tracing is off.
inline TraceSession* active_trace(const sim::Simulator& simulator) {
  TraceSession* t = simulator.trace();
  return (t != nullptr && t->enabled()) ? t : nullptr;
}

}  // namespace dyncdn::obs
