/**
 * @file
 * The trace content hash, the trace half of the result-store key.
 *
 * traceContentHash() runs 64-bit FNV-1a over a fixed byte sequence:
 * the format tag "OOVATRC2", the name's length and bytes, the
 * instruction count, then every instruction field by field as
 * fixed-width little-endian integers. That sequence is the byte
 * stream of the binary trace format the project used to write, so
 * every hash, and every store key built on one, keeps its value. It
 * depends neither on DynInst's in-memory layout nor on host byte
 * order.
 */

#ifndef OOVA_TRACE_TRACE_IO_HH
#define OOVA_TRACE_TRACE_IO_HH

#include <cstdint>

#include "trace/trace.hh"

namespace oova
{

/**
 * 64-bit FNV-1a hash of the trace's name and instructions (see the
 * file comment for the byte order). Two traces hash equal iff their
 * names and every hashed field agree, barring collisions.
 */
uint64_t traceContentHash(const Trace &trace);

} // namespace oova

#endif // OOVA_TRACE_TRACE_IO_HH
