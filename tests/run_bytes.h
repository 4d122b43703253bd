// run_bytes.h - The bytes a simulated run emits, for determinism tests.
//
// Journals and telemetry record only simulated quantities, so two runs
// that must agree are compared on exactly the bytes the tools write: the
// journal as JSON lines (fvsst_sim --journal) followed by the telemetry
// export (sim::JsonLinesSink), with nothing stripped.
#pragma once

#include <sstream>
#include <string>

#include "simkit/event_log.h"
#include "simkit/telemetry.h"

namespace fvsst {

/// Serialized journal, then the serialized telemetry when one is given.
inline std::string run_bytes(const sim::EventLog& journal,
                             const sim::MetricRegistry* telemetry = nullptr) {
  std::ostringstream out;
  sim::write_jsonl(out, journal);
  if (telemetry) {
    sim::JsonLinesSink sink(out);
    telemetry->export_to(sink);
  }
  return out.str();
}

}  // namespace fvsst
