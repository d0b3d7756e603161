#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iomanip>
#include <sstream>

namespace echoimage::obs {

namespace {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Tracer::Tracer(TraceConfig config) : config_(config) {
  if (config_.max_workers == 0) config_.max_workers = 1;
  lanes_.resize(config_.max_workers);
  for (Lane& lane : lanes_) {
    lane.events.reserve(config_.reserve_per_lane);
    lane.open.reserve(64);
  }
}

SpanHandle Tracer::begin(const char* name, bool has_arg, std::uint64_t arg,
                         SpanHandle attach) const {
  if (!enabled_) return kNoParent;
  const std::uint32_t lane_index = static_cast<std::uint32_t>(
      echoimage::runtime::current_worker() % lanes_.size());
  Lane& lane = lanes_[lane_index];
  TraceEvent event;
  event.name = name;
  event.arg = arg;
  event.has_arg = has_arg;
  event.parent = attach.valid() || lane.open.empty()
                     ? attach
                     : SpanHandle{lane_index, lane.open.back()};
  event.start_ns = now_ns();
  const std::uint32_t index = static_cast<std::uint32_t>(lane.events.size());
  lane.events.push_back(event);
  lane.open.push_back(index);
  return SpanHandle{lane_index, index};
}

void Tracer::end(SpanHandle handle) const {
  if (!handle.valid() || handle.lane >= lanes_.size()) return;
  Lane& lane = lanes_[handle.lane];
  if (handle.index >= lane.events.size()) return;
  TraceEvent& event = lane.events[handle.index];
  event.duration_ns = now_ns() - event.start_ns;
  // RAII guarantees LIFO per lane; tolerate out-of-order ends anyway.
  for (std::size_t i = lane.open.size(); i-- > 0;) {
    if (lane.open[i] == handle.index) {
      lane.open.erase(lane.open.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

void Tracer::clear() const {
  for (Lane& lane : lanes_) {
    lane.events.clear();  // keeps capacity: steady-state stays alloc-free
    lane.open.clear();
  }
}

std::size_t Tracer::num_events() const {
  std::size_t total = 0;
  for (const Lane& lane : lanes_) total += lane.events.size();
  return total;
}

std::string Tracer::chrome_trace_json() const {
  std::uint64_t epoch = 0;
  bool first = true;
  for (const Lane& lane : lanes_) {
    for (const TraceEvent& e : lane.events) {
      if (first || e.start_ns < epoch) epoch = e.start_ns;
      first = false;
    }
  }
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  os << "{\"traceEvents\":[";
  bool first_event = true;
  for (std::size_t lane_index = 0; lane_index < lanes_.size(); ++lane_index) {
    for (const TraceEvent& e : lanes_[lane_index].events) {
      if (!first_event) os << ",";
      first_event = false;
      os << "\n{\"name\":\"" << e.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
         << lane_index << ",\"ts\":"
         << static_cast<double>(e.start_ns - epoch) / 1000.0 << ",\"dur\":"
         << static_cast<double>(e.duration_ns) / 1000.0;
      if (e.has_arg) os << ",\"args\":{\"arg\":" << e.arg << "}";
      os << "}";
    }
  }
  os << "\n]}\n";
  return os.str();
}

namespace {

struct Node {
  const TraceEvent* event = nullptr;
  SpanHandle handle;
  std::vector<std::size_t> children;  ///< indexes into the node table
};

void append_label(std::ostringstream& os, const TraceEvent& e, int depth) {
  for (int i = 0; i < depth; ++i) os << "  ";
  os << e.name;
  if (e.has_arg) os << "[" << e.arg << "]";
  os << "\n";
}

void sort_canonical(std::vector<std::size_t>& order,
                    const std::vector<Node>& nodes) {
  std::stable_sort(order.begin(), order.end(),
                   [&nodes](std::size_t a, std::size_t b) {
                     const TraceEvent& ea = *nodes[a].event;
                     const TraceEvent& eb = *nodes[b].event;
                     const int name_cmp = std::strcmp(ea.name, eb.name);
                     if (name_cmp != 0) return name_cmp < 0;
                     if (ea.has_arg != eb.has_arg) return !ea.has_arg;
                     return ea.arg < eb.arg;
                   });
}

void emit_subtree(std::ostringstream& os, std::vector<Node>& nodes,
                  std::size_t node_index, int depth) {
  append_label(os, *nodes[node_index].event, depth);
  sort_canonical(nodes[node_index].children, nodes);
  // Copy: sort_canonical on a child mutates the node table we iterate.
  const std::vector<std::size_t> children = nodes[node_index].children;
  for (std::size_t child : children) emit_subtree(os, nodes, child, depth + 1);
}

}  // namespace

std::string Tracer::structure() const {
  std::vector<Node> nodes;
  nodes.reserve(num_events());
  // Handle -> node-table index; lane-major so lookup is a prefix sum.
  std::vector<std::size_t> lane_base(lanes_.size(), 0);
  for (std::size_t lane_index = 0; lane_index < lanes_.size(); ++lane_index) {
    lane_base[lane_index] = nodes.size();
    const auto& events = lanes_[lane_index].events;
    for (std::size_t i = 0; i < events.size(); ++i) {
      Node node;
      node.event = &events[i];
      node.handle = SpanHandle{static_cast<std::uint32_t>(lane_index),
                               static_cast<std::uint32_t>(i)};
      nodes.push_back(node);
    }
  }
  std::vector<std::size_t> roots;
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    const SpanHandle parent = nodes[n].event->parent;
    if (!parent.valid()) {
      roots.push_back(n);
      continue;
    }
    const std::size_t parent_index = lane_base[parent.lane] + parent.index;
    nodes[parent_index].children.push_back(n);
  }
  std::ostringstream os;
  sort_canonical(roots, nodes);
  for (std::size_t root : roots) emit_subtree(os, nodes, root, 0);
  return os.str();
}

std::string Tracer::summary() const {
  struct Agg {
    std::string name;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  std::vector<Agg> aggs;
  for (const Lane& lane : lanes_) {
    for (const TraceEvent& e : lane.events) {
      Agg* slot = nullptr;
      for (Agg& a : aggs)
        if (a.name == e.name) slot = &a;
      if (slot == nullptr) {
        aggs.push_back(Agg{e.name, 0, 0});
        slot = &aggs.back();
      }
      ++slot->count;
      slot->total_ns += e.duration_ns;
    }
  }
  std::sort(aggs.begin(), aggs.end(),
            [](const Agg& a, const Agg& b) { return a.name < b.name; });
  std::ostringstream os;
  os << std::fixed << std::setprecision(3);
  for (const Agg& a : aggs) {
    const double total_ms = static_cast<double>(a.total_ns) / 1e6;
    os << a.name << " count=" << a.count << " total_ms=" << total_ms
       << " mean_ms=" << (a.count > 0 ? total_ms / static_cast<double>(a.count)
                                      : 0.0)
       << "\n";
  }
  return os.str();
}

}  // namespace echoimage::obs
