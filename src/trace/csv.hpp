// CSV persistence for price traces.
//
// Format: a header line "time_ms,price_per_hour" followed by one change
// event per line. A trailing pseudo-row "end,<time_ms>" records the trace's
// validity end so round-trips are exact. Real EC2 price-history exports can
// be converted to this format to drive the simulator with measured data.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/price_trace.hpp"

namespace spothost::trace {

void save_csv(const PriceTrace& trace, std::ostream& out);
void save_csv_file(const PriceTrace& trace, const std::string& path);

/// Throws std::runtime_error with a line number on malformed input. Fields
/// follow the serve feed's grammar: times are unsigned ASCII digits, prices
/// one positive finite number. Lines may end in CRLF: one trailing '\r' per
/// line is ignored.
PriceTrace load_csv(std::istream& in);
PriceTrace load_csv_file(const std::string& path);

}  // namespace spothost::trace
