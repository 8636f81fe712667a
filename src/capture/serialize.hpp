// Text dump of a capture: the human-readable, grep-able and diff-able
// view of a PacketTrace.
//
// Captures are stored and read back as binary .dtrc files only
// (capture/spill.hpp). The text form is written, never parsed: `trace_inspect
// convert in.dtrc out.txt` dumps a capture for reading, and perf_smoke
// measures .dtrc compression against the headers-only dump's size.
//
// Format (one record per line, header line first):
//   # dyncdn-trace v1 node=<id>
//   <ns> <snd|rcv> <src> <sport> <dst> <dport> <seq> <ack> <win>
//       <flags> <paylen> [<hex payload>]      (one line per record)
// Flags is a subset of "SAFR" ('.' when none). Payload hex is present only
// when the record retained bytes.
#pragma once

#include <string>

#include "capture/trace.hpp"

namespace dyncdn::capture {

/// Serialize to the text format. `with_payloads` controls whether retained
/// payload bytes are written (they dominate file size).
std::string serialize_trace(const PacketTrace& trace,
                            bool with_payloads = true);

/// Write serialize_trace's output to `path` (throws std::runtime_error on
/// I/O failure).
void save_trace(const PacketTrace& trace, const std::string& path,
                bool with_payloads = true);

}  // namespace dyncdn::capture
