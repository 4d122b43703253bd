// run_bytes.h - The bytes a simulated run emits, for determinism tests.
//
// Journals and telemetry record only simulated quantities, so two runs
// that must agree are compared on exactly the bytes the tools write: the
// journal as JSON lines (fvsst_sim --journal) followed by the telemetry
// export (sim::JsonLinesSink), with nothing stripped.
#pragma once

#include <cinttypes>
#include <cstdint>
#include <cstdio>
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

/// FNV-1a-64 of `bytes` as 16 hex digits: the digest a golden test pins.
inline std::string fnv1a64_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
  char hex[24];
  std::snprintf(hex, sizeof hex, "%016" PRIx64, h);
  return hex;
}

}  // namespace fvsst
