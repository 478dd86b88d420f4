/**
 * @file
 * Execution-trace recording.
 *
 * Simulators record named intervals per track (device, link, GPU) and
 * export them in the Chrome trace-event JSON format, viewable in
 * chrome://tracing or Perfetto — the standard way to eyeball a decode
 * step's pipeline occupancy.
 */

#ifndef HILOS_SIM_TRACE_H_
#define HILOS_SIM_TRACE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/units.h"

namespace hilos {

/** One complete interval on a track. */
struct TraceEvent {
    std::string track;  ///< e.g. "p2p3", "uplink", "gpu"
    std::string name;   ///< e.g. "layer12/slice88"
    Seconds begin = 0;
    Seconds end = 0;
};

/**
 * Interval recorder with Chrome trace-event export.
 */
class TraceRecorder
{
  public:
    TraceRecorder() = default;

    /** Record an interval; zero-length intervals are kept. */
    void record(const std::string &track, const std::string &name,
                Seconds begin, Seconds end);

    /** All events, in insertion order. */
    const std::vector<TraceEvent> &events() const { return events_; }

    /** Events on one track, in insertion order. */
    std::vector<TraceEvent> track(const std::string &name) const;

    /** Busy time of one track (sum of interval lengths). */
    // lint: reference (the golden trace summary reports it)
    Seconds busyTime(const std::string &track) const;

    /**
     * Serialise as Chrome trace-event JSON ("X" complete events;
     * timestamps in microseconds, one pid, one tid per track).
     */
    void writeChromeTrace(std::ostream &os) const;

    void clear() { events_.clear(); }
    std::size_t size() const { return events_.size(); }

  private:
    std::vector<TraceEvent> events_;
};

}  // namespace hilos

#endif  // HILOS_SIM_TRACE_H_
