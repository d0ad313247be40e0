#include "trace/csv.hpp"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace spothost::trace {
namespace {

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  std::ostringstream oss;
  oss << "trace CSV parse error at line " << line_no << ": " << why;
  throw std::runtime_error(oss.str());
}

/// One std::from_chars number spanning all of `field`: the live feed's
/// grammar, so a blank or '+' in front, a hex float or a byte after the
/// number rejects the field.
template <class T>
bool parse_field(const std::string& field, T& out) {
  const char* end = field.data() + field.size();
  const auto [p, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc{} && p == end;
}

/// The feed's time grammar: ASCII digits spanning `field` that fit an int64.
/// Integer from_chars alone would also take a leading '-'.
bool parse_time(const std::string& field, sim::SimTime& out) {
  return !field.empty() && field.front() >= '0' && field.front() <= '9' &&
         parse_field(field, out);
}

}  // namespace

void save_csv(const PriceTrace& trace, std::ostream& out) {
  out << "time_ms,price_per_hour\n";
  // max_digits10: doubles round-trip exactly through the text format.
  out.precision(17);
  for (const auto& p : trace.points()) {
    out << p.time << ',' << p.price << '\n';
  }
  out << "end," << trace.end() << '\n';
}

void save_csv_file(const PriceTrace& trace, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  save_csv(trace, out);
}

PriceTrace load_csv(std::istream& in) {
  std::string line;
  std::size_t line_no = 0;
  // A CRLF file reads like its LF twin: each line loses one trailing '\r'.
  const auto next_line = [&] {
    if (!std::getline(in, line)) return false;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    ++line_no;
    return true;
  };
  if (!next_line()) fail(1, "empty input");
  if (line != "time_ms,price_per_hour") fail(line_no, "bad header: " + line);

  PriceTrace trace;
  bool saw_end = false;
  while (next_line()) {
    if (line.empty()) continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos) fail(line_no, "missing comma");
    const std::string lhs = line.substr(0, comma);
    const std::string rhs = line.substr(comma + 1);
    if (lhs == "end") {
      sim::SimTime end = 0;
      if (!parse_time(rhs, end)) fail(line_no, "bad end timestamp: " + rhs);
      try {
        trace.set_end(end);
      } catch (const std::invalid_argument& e) {
        fail(line_no, e.what());
      }
      saw_end = true;
      continue;
    }
    if (saw_end) fail(line_no, "data after end marker");
    sim::SimTime t = 0;
    if (!parse_time(lhs, t)) fail(line_no, "bad timestamp: " + lhs);
    double price = 0.0;
    if (!parse_field(rhs, price)) fail(line_no, "bad price: " + rhs);
    try {
      trace.append(t, price);
    } catch (const std::invalid_argument& e) {
      fail(line_no, e.what());
    }
  }
  if (trace.empty()) fail(line_no, "no data rows");
  return trace;
}

PriceTrace load_csv_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open for read: " + path);
  return load_csv(in);
}

}  // namespace spothost::trace
