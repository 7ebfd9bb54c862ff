#include "routing/simulator.hpp"

#include <algorithm>
#include <cassert>

namespace pofl {

namespace {

/// Masks header fields the model is not allowed to read.
Header masked(const Header& header, RoutingModel model) {
  Header h = header;
  switch (model) {
    case RoutingModel::kSourceDestination:
      break;
    case RoutingModel::kDestinationOnly:
      h.source = kNoVertex;
      break;
    case RoutingModel::kTouring:
      h.source = kNoVertex;
      h.destination = kNoVertex;
      break;
  }
  return h;
}

/// The shared routing core. `walk` is optional: the fast path passes nullptr
/// and skips all recording; the classic path passes the result vector. Both
/// run the exact same control flow, so outcomes and hop counts agree bit for
/// bit.
RoutingOutcome route_core(const SimContext& ctx, const ForwardingPattern& pattern,
                          const IdSet& failures, VertexId source, const Header& header,
                          RoutingWorkspace& ws, int& hops, std::vector<VertexId>* walk) {
  const Graph& g = ctx.graph();
  const Header visible = masked(header, pattern.model());
  const VertexId destination = header.destination;
  assert(destination != kNoVertex && "route_packet needs a destination to detect delivery");

  hops = 0;
  if (walk != nullptr) walk->push_back(source);
  if (source == destination) return RoutingOutcome::kDelivered;

  ws.begin_packet(ctx);
  IdSet& local = ws.local_failures();

  VertexId at = source;
  EdgeId inport = kNoEdge;
  while (true) {
    if (ws.mark_seen(ctx.state_id(at, inport))) return RoutingOutcome::kLooped;

    local.assign_and(failures, ctx.incident_mask(at));
    const auto out = pattern.forward(g, at, inport, local, visible);
    if (!out.has_value()) return RoutingOutcome::kDropped;
    const EdgeId oe = *out;
    const bool incident =
        oe >= 0 && oe < g.num_edges() && (g.edge(oe).u == at || g.edge(oe).v == at);
    if (!incident || failures.contains(oe)) return RoutingOutcome::kInvalidForward;
    at = g.other_endpoint(oe, at);
    inport = oe;
    ++hops;
    if (walk != nullptr) walk->push_back(at);
    if (at == destination) return RoutingOutcome::kDelivered;
  }
}

/// The shared touring core. The walk is always recorded — tour success is a
/// property of the whole walk — but into `walk`'s reused storage; the fast
/// path hands in the workspace scratch buffer so steady state allocates
/// nothing. `missed` is only filled when requested (the classic API).
void tour_core(const SimContext& ctx, const ForwardingPattern& pattern, const IdSet& failures,
               VertexId start, RoutingWorkspace& ws, FastTourResult& out,
               std::vector<VertexId>& walk, std::vector<VertexId>* missed) {
  const Graph& g = ctx.graph();
  ws.begin_packet(ctx);
  IdSet& local = ws.local_failures();

  walk.clear();
  walk.push_back(start);
  out.success = false;
  out.dropped = false;
  out.steps_walked = 0;

  // first_step(sid) = walk index at which the state was first entered; the
  // walk from that index onward is the periodic orbit once a state repeats.
  int orbit_start = -1;
  const Header none;  // touring sees no header

  VertexId at = start;
  EdgeId inport = kNoEdge;
  while (true) {
    const int sid = ctx.state_id(at, inport);
    const int prev = ws.first_step(sid);
    if (prev >= 0) {
      orbit_start = prev;
      break;  // walk is provably periodic now
    }
    ws.set_first_step(sid, static_cast<int>(walk.size()) - 1);

    local.assign_and(failures, ctx.incident_mask(at));
    const auto fwd = pattern.forward(g, at, inport, local, none);
    if (!fwd.has_value()) {
      // A degree-0 start trivially tours its singleton component.
      out.dropped = g.has_alive_incident_edge(at, failures) || at != start;
      break;
    }
    const EdgeId oe = *fwd;
    const bool incident =
        oe >= 0 && oe < g.num_edges() && (g.edge(oe).u == at || g.edge(oe).v == at);
    if (!incident || failures.contains(oe)) {
      out.dropped = true;
      break;
    }
    at = g.other_endpoint(oe, at);
    inport = oe;
    ++out.steps_walked;
    walk.push_back(at);
  }

  // Success: the packet visits the whole surviving component and returns to
  // the start. Coverage can only grow while new states appear, so it is
  // decided within the recorded walk; the return to the start happens either
  // inside the recorded prefix (after coverage completed) or — since the
  // walk replays its periodic orbit forever — whenever the start lies on the
  // orbit at all. The component membership comes from an epoch-stamped BFS
  // (same vertices as component_of(g, start, failures)).
  std::vector<VertexId>& queue = ws.queue_scratch();
  queue.clear();
  (void)ws.mark_component(start);
  queue.push_back(start);
  int needed_count = 1;
  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    for (EdgeId e : g.incident_edges(v)) {
      if (failures.contains(e)) continue;
      const VertexId w = g.other_endpoint(e, v);
      if (!ws.mark_component(w)) {
        ++needed_count;
        queue.push_back(w);
      }
    }
  }

  bool start_on_orbit = false;
  if (orbit_start >= 0) {
    for (size_t i = static_cast<size_t>(orbit_start); i < walk.size(); ++i) {
      if (walk[i] == start) start_on_orbit = true;
    }
  }
  int covered_count = 0;
  bool success = false;
  for (const VertexId v : walk) {
    if (ws.in_component(v) && !ws.mark_covered(v)) ++covered_count;
    if (covered_count == needed_count && (v == start || start_on_orbit)) {
      success = true;
      break;
    }
  }
  out.success = success && !out.dropped;
  if (missed != nullptr) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (ws.in_component(v) && !ws.is_covered(v)) missed->push_back(v);
    }
  }
}

}  // namespace

SimContext::SimContext(const Graph& g)
    : g_(&g), state_offset_(static_cast<size_t>(g.num_vertices())) {
  int running = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    state_offset_[static_cast<size_t>(v)] = running;
    running += g.degree(v) + 1;  // +1 for the bottom in-port
  }
  total_states_ = running;
  state_node_.resize(static_cast<size_t>(total_states_));
  state_inport_.resize(static_cast<size_t>(total_states_));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    size_t sid = static_cast<size_t>(state_offset_[static_cast<size_t>(v)]);
    state_node_[sid] = v;
    state_inport_[sid] = kNoEdge;
    for (EdgeId e : g.incident_edges(v)) {
      ++sid;
      state_node_[sid] = v;
      state_inport_[sid] = e;
    }
  }
  incident_masks_.reserve(static_cast<size_t>(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    incident_masks_.push_back(g.incident_edge_set(v));
  }
}

namespace {

/// Decision-cache sizing: start small, double at 60% load, stop growing (and
/// inserting) at the cap — ~2M entries, bounded memory even for adversarial
/// scenario streams. Lookups keep hitting the resident entries either way.
constexpr size_t kDecisionCacheInitialCap = 1024;
constexpr size_t kDecisionCacheMaxCap = size_t{1} << 21;

/// Dense per-(node, slot) port-mask memo gate: the table is 64 slots wide
/// per vertex, so very large graphs skip it and recompute masks per hop.
constexpr int kPmaskDenseMaxVertices = 4096;

}  // namespace

void RoutingWorkspace::begin_session(const SimContext& ctx, const ForwardingPattern& pattern) {
  const auto states = static_cast<size_t>(ctx.num_states());
  if (gseen_.size() < states) gseen_.resize(states);
  const int vertices = ctx.graph().num_vertices();
  const int edges = ctx.graph().num_edges();
  edge_word_mode_ = edges >= 1 && edges <= 64;
  if (edge_word_mode_) {
    // One AND replaces the whole port-mask machinery; the incident words are
    // a pure function of the graph, so refilling them per session is cheap
    // insurance against a graph change under an unchanged vertex count.
    iw_.resize(static_cast<size_t>(vertices));
    for (int v = 0; v < vertices; ++v) {
      iw_[static_cast<size_t>(v)] = ctx.incident_mask(v).word(0);
    }
  }
  pmask_dense_ = !edge_word_mode_ && vertices <= kPmaskDenseMaxVertices;
  if (pmask_dense_) {
    const size_t want = static_cast<size_t>(vertices) << 6;
    if (pmask_.size() < want) {
      pmask_.resize(want, 0);
      pmask_stamp_.resize(want, 0);
    }
  }
  // The memoized transitions are a function of (graph structure, pattern);
  // the never-reused uids make this exact even across object lifetimes.
  const uint64_t graph_uid = ctx.graph().uid();
  const uint64_t pattern_uid = pattern.uid();
  if (dc_graph_uid_ != graph_uid || dc_pattern_uid_ != pattern_uid) {
    std::fill(dc_.begin(), dc_.end(), DecisionSlot{});
    dc_size_ = 0;
    dc_graph_uid_ = graph_uid;
    dc_pattern_uid_ = pattern_uid;
  }
}

void RoutingWorkspace::begin_chunk() {
  ++chunk_epoch_;
  if (chunk_epoch_ == 0) {
    std::fill(gseen_.begin(), gseen_.end(), SeenRow{});
    std::fill(pmask_stamp_.begin(), pmask_stamp_.end(), 0u);
    chunk_epoch_ = 1;
  }
}

uint64_t RoutingWorkspace::compute_port_mask(const SimContext& ctx, VertexId v,
                                             const IdSet& failures) {
  const Graph& g = ctx.graph();
  if (g.degree(v) > 63) return kWidePortMask;
  uint64_t mask = 0;
  ctx.incident_mask(v).for_each_and(failures,
                                    [&](int e) { mask |= uint64_t{1} << g.port_of(e, v); });
  return mask;
}

void RoutingWorkspace::insert_decision(uint64_t key_cs, uint64_t key_mask, int64_t next) {
  if (dc_.empty() || dc_size_ * 5 >= dc_.size() * 3) {
    if (!dc_.empty() && dc_.size() >= kDecisionCacheMaxCap) return;  // at capacity
    grow_decision_cache();
  }
  const size_t cap_mask = dc_.size() - 1;
  size_t i = static_cast<size_t>(decision_hash(key_cs, key_mask)) & cap_mask;
  while (dc_[i].cs != kEmptySlot) {
    if (dc_[i].cs == key_cs && dc_[i].mask == key_mask) return;  // already present
    i = (i + 1) & cap_mask;
  }
  dc_[i] = DecisionSlot{key_cs, key_mask, next};
  ++dc_size_;
}

void RoutingWorkspace::grow_decision_cache() {
  const size_t new_cap = dc_.empty() ? kDecisionCacheInitialCap : dc_.size() * 2;
  std::vector<DecisionSlot> old = std::move(dc_);
  dc_.assign(new_cap, DecisionSlot{});
  const size_t cap_mask = new_cap - 1;
  for (const DecisionSlot& slot : old) {
    if (slot.cs == kEmptySlot) continue;
    size_t j = static_cast<size_t>(decision_hash(slot.cs, slot.mask)) & cap_mask;
    while (dc_[j].cs != kEmptySlot) j = (j + 1) & cap_mask;
    dc_[j] = slot;
  }
}

void RoutingWorkspace::begin_packet(const SimContext& ctx) {
  const auto states = static_cast<size_t>(ctx.num_states());
  const auto vertices = static_cast<size_t>(ctx.graph().num_vertices());
  if (seen_.size() < states) {
    seen_.resize(states, 0);
    first_step_.resize(states, 0);
  }
  if (comp_stamp_.size() < vertices) {
    comp_stamp_.resize(vertices, 0);
    cov_stamp_.resize(vertices, 0);
  }
  ++epoch_;
  if (epoch_ == 0) {
    // Stamp wrap-around after 2^32 packets: stale stamps could collide with
    // the fresh epoch, so wipe them once and restart at 1.
    std::fill(seen_.begin(), seen_.end(), 0u);
    std::fill(comp_stamp_.begin(), comp_stamp_.end(), 0u);
    std::fill(cov_stamp_.begin(), cov_stamp_.end(), 0u);
    epoch_ = 1;
  }
}

RoutingResult route_packet(const Graph& g, const ForwardingPattern& pattern, const IdSet& failures,
                           VertexId source, Header header) {
  const SimContext ctx(g);
  RoutingWorkspace ws;
  return route_packet(ctx, pattern, failures, source, header, ws);
}

RoutingResult route_packet(const SimContext& ctx, const ForwardingPattern& pattern,
                           const IdSet& failures, VertexId source, Header header,
                           RoutingWorkspace& ws) {
  RoutingResult result;
  result.outcome = route_core(ctx, pattern, failures, source, header, ws, result.hops,
                              &result.walk);
  return result;
}

FastRouteResult route_packet_fast(const SimContext& ctx, const ForwardingPattern& pattern,
                                  const IdSet& failures, VertexId source, Header header,
                                  RoutingWorkspace& ws) {
  FastRouteResult result;
  result.outcome = route_core(ctx, pattern, failures, source, header, ws, result.hops, nullptr);
  return result;
}

namespace {

/// One uncached forwarding decision, the exact control flow of route_core's
/// hop body: masked header in, out edge id or a drop/invalid sentinel out.
int32_t compute_decision(const SimContext& ctx, const ForwardingPattern& pattern,
                         const IdSet& failures, VertexId at, EdgeId inport,
                         const Header& visible, RoutingWorkspace& ws) {
  const Graph& g = ctx.graph();
  IdSet& local = ws.local_failures();
  local.assign_and(failures, ctx.incident_mask(at));
  const auto out = pattern.forward(g, at, inport, local, visible);
  if (!out.has_value()) return RoutingWorkspace::kDecisionDrop;
  const EdgeId oe = *out;
  const bool incident =
      oe >= 0 && oe < g.num_edges() && (g.edge(oe).u == at || g.edge(oe).v == at);
  if (!incident || failures.contains(oe)) return RoutingWorkspace::kDecisionInvalid;
  return oe;
}

}  // namespace

GroupRouteTally route_groups_fast(const SimContext& ctx, const ForwardingPattern& pattern,
                                  const IdSet* const* failure_sets, const int32_t* group_of,
                                  const VertexId* sources, const VertexId* destinations,
                                  int count, RoutingWorkspace& ws, FastRouteResult* results) {
  GroupRouteTally tally;
  if (count <= 0) return tally;
  const Graph& g = ctx.graph();
  const RoutingModel model = pattern.model();
  const auto nvtx = static_cast<uint64_t>(g.num_vertices());
  // Class ids must fit 31 bits for the packed cache key; the source-
  // destination class is s * n + t < n^2, so any n <= 46340 caches (larger
  // graphs fall back to calling the pattern every hop, still lockstep).
  const bool cacheable_graph = g.num_vertices() <= 46340;
  ws.begin_session(ctx, pattern);

#ifndef NDEBUG
  for (int i = 1; i < count; ++i) {
    const int32_t d = (group_of != nullptr ? group_of[i] : 0) -
                      (group_of != nullptr ? group_of[i - 1] : 0);
    assert((d == 0 || d == 1) && "route_groups_fast needs dense non-decreasing group ids");
  }
#endif

  const bool ew = ws.edge_word_mode();
  const uint64_t* iw = ws.incident_words();

  for (int base = 0; base < count; base += 64) {
    const int width = std::min(64, count - base);
    ws.begin_chunk();
    uint64_t active = width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    int sid[64];
    VertexId node[64];
    VertexId dest[64];
    uint64_t cls[64];  // header class, pre-shifted into the key's high half
    uint64_t fw[64];   // failure word (edge-word mode)
    const IdSet* fset[64];
    int gslot[64];
    for (int p = 0; p < width; ++p) {
      const VertexId s = sources[base + p];
      const VertexId t = destinations[base + p];
      assert(t != kNoVertex && "route_groups_fast needs destinations to detect delivery");
      const int32_t grp = group_of != nullptr ? group_of[base + p] : 0;
      fset[p] = failure_sets[grp];
      fw[p] = ew ? fset[p]->word(0) : 0;
      gslot[p] = static_cast<int>(grp & 63);
      dest[p] = t;
      if (s == t) {
        // Same short-circuit as route_core: delivered in place, zero hops.
        if (results != nullptr) {
          results[base + p] = FastRouteResult{RoutingOutcome::kDelivered, 0};
        }
        ++tally.delivered;
        active &= ~(uint64_t{1} << p);
        continue;
      }
      sid[p] = ctx.state_id(s, kNoEdge);
      node[p] = s;
      switch (model) {
        case RoutingModel::kSourceDestination:
          cls[p] = (static_cast<uint64_t>(s) * nvtx + static_cast<uint64_t>(t)) << 32;
          break;
        case RoutingModel::kDestinationOnly:
          cls[p] = static_cast<uint64_t>(t) << 32;
          break;
        case RoutingModel::kTouring:
          cls[p] = 0;  // the model sees no header: one class for everything
          break;
      }
    }

    // Lockstep rounds: every active packet advances one hop per round, so a
    // packet terminating in round r has walked r hops (loops/drops/invalids
    // terminate *before* hopping and keep the previous round's count) —
    // exactly route_core's per-packet hop accounting.
    int rounds = 0;
    while (active != 0) {
      uint64_t delivered_now = 0;
      uint64_t looped_now = 0;
      uint64_t dropped_now = 0;
      uint64_t invalid_now = 0;
      for (uint64_t rest = active; rest != 0; rest &= rest - 1) {
        const int p = __builtin_ctzll(rest);
        const uint64_t bit = uint64_t{1} << p;
        const int state = sid[p];
        const uint64_t row = ws.seen_row(state);
        if ((row & bit) != 0) {
          looped_now |= bit;
          continue;
        }
        ws.store_seen_row(state, row | bit);

        const VertexId at = node[p];
        const uint64_t pmask = ew ? (fw[p] & iw[at]) : ws.port_mask(ctx, at, gslot[p], *fset[p]);
        const bool cacheable =
            cacheable_graph && (ew || (pmask & RoutingWorkspace::kWidePortMask) == 0);
        const uint64_t key_cs = cls[p] | static_cast<uint32_t>(state);
        int64_t dec =
            cacheable ? ws.lookup_decision(key_cs, pmask) : RoutingWorkspace::kDecisionMiss;
        if (dec == RoutingWorkspace::kDecisionMiss) {
          Header visible;
          switch (model) {
            case RoutingModel::kSourceDestination:
              visible = Header{sources[base + p], destinations[base + p]};
              break;
            case RoutingModel::kDestinationOnly:
              visible = Header{kNoVertex, destinations[base + p]};
              break;
            case RoutingModel::kTouring:
              break;  // sees nothing
          }
          const int32_t edge =
              compute_decision(ctx, pattern, *fset[p], at, ctx.state_inport(state), visible, ws);
          // Cache the *transition* (next state id), not the edge: the hit
          // path then needs no other_endpoint/state_id reconstruction.
          dec = edge < 0 ? edge : ctx.state_id(g.other_endpoint(edge, at), edge);
          if (cacheable) ws.insert_decision(key_cs, pmask, dec);
        }
        if (dec < 0) {
          if (dec == RoutingWorkspace::kDecisionDrop) {
            dropped_now |= bit;
          } else {
            invalid_now |= bit;
          }
          continue;
        }
        const int next_sid = static_cast<int>(dec);
        const VertexId next = ctx.state_node(next_sid);
        node[p] = next;
        sid[p] = next_sid;
        if (next == dest[p]) delivered_now |= bit;
      }

      const int delivered_count = __builtin_popcountll(delivered_now);
      tally.delivered += delivered_count;
      tally.hops_delivered += static_cast<int64_t>(rounds + 1) * delivered_count;
      tally.looped += __builtin_popcountll(looped_now);
      tally.dropped += __builtin_popcountll(dropped_now);
      tally.invalid += __builtin_popcountll(invalid_now);
      if (results != nullptr) {
        for (uint64_t w = delivered_now; w != 0; w &= w - 1) {
          results[base + __builtin_ctzll(w)] =
              FastRouteResult{RoutingOutcome::kDelivered, rounds + 1};
        }
        for (uint64_t w = looped_now; w != 0; w &= w - 1) {
          results[base + __builtin_ctzll(w)] = FastRouteResult{RoutingOutcome::kLooped, rounds};
        }
        for (uint64_t w = dropped_now; w != 0; w &= w - 1) {
          results[base + __builtin_ctzll(w)] = FastRouteResult{RoutingOutcome::kDropped, rounds};
        }
        for (uint64_t w = invalid_now; w != 0; w &= w - 1) {
          results[base + __builtin_ctzll(w)] =
              FastRouteResult{RoutingOutcome::kInvalidForward, rounds};
        }
      }
      active &= ~(delivered_now | looped_now | dropped_now | invalid_now);
      ++rounds;
    }
  }
  return tally;
}

TourResult tour_packet(const Graph& g, const ForwardingPattern& pattern, const IdSet& failures,
                       VertexId start) {
  const SimContext ctx(g);
  RoutingWorkspace ws;
  return tour_packet(ctx, pattern, failures, start, ws);
}

TourResult tour_packet(const SimContext& ctx, const ForwardingPattern& pattern,
                       const IdSet& failures, VertexId start, RoutingWorkspace& ws) {
  TourResult result;
  FastTourResult fast;
  tour_core(ctx, pattern, failures, start, ws, fast, result.walk, &result.missed);
  result.success = fast.success;
  result.dropped = fast.dropped;
  result.steps_walked = fast.steps_walked;
  return result;
}

FastTourResult tour_packet_fast(const SimContext& ctx, const ForwardingPattern& pattern,
                                const IdSet& failures, VertexId start, RoutingWorkspace& ws) {
  FastTourResult result;
  tour_core(ctx, pattern, failures, start, ws, result, ws.walk_scratch(), nullptr);
  return result;
}

bool connected_fast(const SimContext& ctx, const IdSet& failures, VertexId u, VertexId v,
                    RoutingWorkspace& ws) {
  if (u == v) return true;
  const Graph& g = ctx.graph();
  ws.begin_packet(ctx);
  std::vector<VertexId>& queue = ws.queue_scratch();
  queue.clear();
  (void)ws.mark_component(u);
  queue.push_back(u);
  for (size_t head = 0; head < queue.size(); ++head) {
    const VertexId at = queue[head];
    for (EdgeId e : g.incident_edges(at)) {
      if (failures.contains(e)) continue;
      const VertexId w = g.other_endpoint(e, at);
      if (w == v) return true;
      if (!ws.mark_component(w)) queue.push_back(w);
    }
  }
  return false;
}

}  // namespace pofl
