#pragma once
// Binary trace files: capture a generated request stream to disk so it
// can be inspected offline (see the trace_tool example).
//
// Format (little-endian):
//   magic "TWTRACE1" (8 bytes)
//   u32 record_count, u32 cores
//   records: { u64 gap, u64 addr, u32 core, u8 is_write, u8[3] pad }

#include <string>
#include <vector>

#include "tw/common/types.hpp"
#include "tw/workload/generator.hpp"

namespace tw::workload {

/// One recorded request with its issuing core.
struct TraceRecord {
  u64 gap = 0;
  Addr addr = 0;
  u32 core = 0;
  bool is_write = false;
};

/// Write records to a file. Throws std::runtime_error on I/O failure.
void save_trace(const std::string& path,
                const std::vector<TraceRecord>& records, u32 cores);

/// Read records back. Throws std::runtime_error on I/O or format errors.
std::vector<TraceRecord> load_trace(const std::string& path, u32* cores);

/// Capture `count` requests per core from a generator.
std::vector<TraceRecord> capture(TraceGenerator& gen, u32 cores, u64 count);

}  // namespace tw::workload
