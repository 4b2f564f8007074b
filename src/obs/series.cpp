#include "obs/series.hpp"

#include <algorithm>
#include <array>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "common/parse.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace swt {

TimeSeriesStore::TimeSeriesStore(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ < 2)
    throw std::invalid_argument("TimeSeriesStore: capacity must be >= 2");
}

void TimeSeriesStore::append(std::string_view name, SeriesPoint p) {
  std::scoped_lock lock(mutex_);
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_.emplace(std::string(name), Ring{}).first;
    it->second.buf.reserve(capacity_);
  }
  Ring& ring = it->second;
  if (ring.buf.size() < capacity_) {
    ring.buf.push_back(p);
  } else {
    ring.buf[ring.next] = p;
    ++dropped_;
  }
  ring.next = (ring.next + 1) % capacity_;
  ++ring.total;
}

std::vector<std::string> TimeSeriesStore::names() const {
  std::scoped_lock lock(mutex_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, ring] : series_) out.push_back(name);
  return out;
}

std::vector<SeriesPoint> TimeSeriesStore::points(std::string_view name) const {
  std::scoped_lock lock(mutex_);
  const auto it = series_.find(name);
  if (it == series_.end()) return {};
  const Ring& ring = it->second;
  std::vector<SeriesPoint> out;
  out.reserve(ring.buf.size());
  if (ring.buf.size() < capacity_) {
    out = ring.buf;  // not yet wrapped: insertion order is chronological
  } else {
    for (std::size_t i = 0; i < capacity_; ++i)
      out.push_back(ring.buf[(ring.next + i) % capacity_]);
  }
  return out;
}

std::vector<SeriesPoint> TimeSeriesStore::window(std::string_view name,
                                                 std::size_t max_points) const {
  std::vector<SeriesPoint> all = points(name);
  if (max_points == 0 || all.size() <= max_points) return all;
  // Even stride over the retained range, pinned to the newest point so the
  // live edge is always visible.
  std::vector<SeriesPoint> out;
  out.reserve(max_points);
  const double stride =
      static_cast<double>(all.size() - 1) / static_cast<double>(max_points - 1);
  for (std::size_t i = 0; i + 1 < max_points; ++i)
    out.push_back(all[static_cast<std::size_t>(static_cast<double>(i) * stride)]);
  out.push_back(all.back());
  return out;
}

std::uint64_t TimeSeriesStore::total_appended(std::string_view name) const {
  std::scoped_lock lock(mutex_);
  const auto it = series_.find(name);
  return it == series_.end() ? 0 : it->second.total;
}

std::uint64_t TimeSeriesStore::dropped() const {
  std::scoped_lock lock(mutex_);
  return dropped_;
}

void TimeSeriesStore::clear() {
  std::scoped_lock lock(mutex_);
  series_.clear();
  dropped_ = 0;
}

void write_series_csv(std::ostream& os, const TimeSeriesStore& store) {
  os << "series,wall_s,virtual_s,value\n";
  for (const std::string& name : store.names())
    for (const SeriesPoint& p : store.points(name))
      os << name << ',' << json_number(p.wall_s) << ',' << json_number(p.virtual_s)
         << ',' << json_number(p.value) << '\n';
}

void read_series_csv(std::istream& is, TimeSeriesStore& store) {
  std::string line;
  long line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line_no == 1) {
      if (line.rfind("series,wall_s", 0) != 0)
        throw std::runtime_error("series CSV: unexpected header: " + line);
      continue;
    }
    if (line.empty()) continue;
    std::array<std::string, 4> cell;
    std::size_t col = 0, start = 0;
    for (std::size_t i = 0; i <= line.size(); ++i) {
      if (i == line.size() || line[i] == ',') {
        if (col >= cell.size())
          throw std::runtime_error("series CSV line " + std::to_string(line_no) +
                                   ": too many columns");
        cell[col++] = line.substr(start, i - start);
        start = i + 1;
      }
    }
    if (col != cell.size())
      throw std::runtime_error("series CSV line " + std::to_string(line_no) +
                               ": expected 4 columns, got " + std::to_string(col));
    const std::optional<double> wall = parse_double(cell[1]);
    const std::optional<double> virt = parse_double(cell[2]);
    // "null" marks a non-finite sample.
    const std::optional<double> value = cell[3] == "null" ? 0.0 : parse_double(cell[3]);
    if (!wall || !virt || !value)
      throw std::runtime_error("series CSV line " + std::to_string(line_no) +
                               ": malformed number in: " + line);
    store.append(cell[0], SeriesPoint{*wall, *virt, *value});
  }
}

std::string series_to_json(std::string_view name, const std::vector<SeriesPoint>& pts,
                           std::uint64_t total) {
  std::string out = "{\"name\":\"";
  out += json_escape(name);
  out += "\",\"total\":";
  out += std::to_string(total);
  out += ",\"points\":[";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i != 0) out += ',';
    out += '[';
    out += json_number(pts[i].wall_s);
    out += ',';
    out += json_number(pts[i].virtual_s);
    out += ',';
    out += json_number(pts[i].value);
    out += ']';
  }
  out += "]}";
  return out;
}

Sampler::Sampler(TimeSeriesStore& store, MetricsRegistry& registry, Config cfg)
    : store_(store), registry_(registry), cfg_(std::move(cfg)) {
  if (cfg_.interval.count() <= 0)
    throw std::invalid_argument("Sampler: interval must be positive");
}

Sampler::Sampler(TimeSeriesStore& store, MetricsRegistry& registry)
    : Sampler(store, registry, Config()) {}

Sampler::~Sampler() { stop(); }

void Sampler::start() {
  std::scoped_lock lock(mutex_);
  if (thread_.joinable()) return;  // already running
  stop_requested_ = false;
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { loop(); });
}

void Sampler::stop() {
  {
    std::scoped_lock lock(mutex_);
    if (!thread_.joinable()) return;
    stop_requested_ = true;
  }
  cv_.notify_all();
  thread_.join();
  thread_ = std::thread{};
  running_.store(false, std::memory_order_relaxed);
}

void Sampler::tick() {
  const double wall_s = SpanTracer::wall_now_us() / 1e6;
  const auto scalars = registry_.scalar_values();
  double virtual_s = -1.0;
  const auto vt = scalars.find(cfg_.virtual_time_gauge);
  if (vt != scalars.end() && vt->second > 0.0) virtual_s = vt->second;
  for (const auto& [name, value] : scalars) {
    if (!cfg_.prefixes.empty() &&
        std::none_of(cfg_.prefixes.begin(), cfg_.prefixes.end(),
                     [&name = name](const std::string& p) {
                       return name.rfind(p, 0) == 0;
                     }))
      continue;
    store_.append(name, SeriesPoint{wall_s, virtual_s, value});
  }
  ticks_.fetch_add(1, std::memory_order_relaxed);
  if (on_tick_) on_tick_();
}

void Sampler::loop() {
  std::unique_lock lock(mutex_);
  while (!stop_requested_) {
    lock.unlock();
    tick();
    lock.lock();
    cv_.wait_for(lock, cfg_.interval, [this] { return stop_requested_; });
  }
}

}  // namespace swt
