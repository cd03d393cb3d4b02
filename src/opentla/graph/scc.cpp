#include "opentla/graph/scc.hpp"

#include <algorithm>

#include "opentla/obs/obs.hpp"

namespace opentla {

namespace {
constexpr std::uint32_t kUnvisited = UINT32_MAX;
}  // namespace

std::vector<std::vector<StateId>> strongly_connected_components(
    const StateGraph& g, const std::vector<StateId>& roots, const SubgraphFilter& filter) {
  SccWorkspace ws;
  return strongly_connected_components(g, roots, filter, ws);
}

std::vector<std::vector<StateId>> strongly_connected_components(
    const StateGraph& g, const std::vector<StateId>& roots, const SubgraphFilter& filter,
    SccWorkspace& ws) {
  OPENTLA_OBS_COUNT(SccPasses);
  const std::size_t n = g.num_states();
  if (ws.index.size() != n) {
    ws.index.assign(n, kUnvisited);
    ws.lowlink.assign(n, 0);
    ws.on_stack.assign(n, 0);
  }
  std::vector<std::uint32_t>& index = ws.index;
  std::vector<std::uint32_t>& lowlink = ws.lowlink;
  std::vector<char>& on_stack = ws.on_stack;
  std::vector<StateId> stack;
  std::vector<std::vector<StateId>> components;
  std::uint32_t next_index = 0;

  struct Frame {
    StateId node;
    std::size_t child = 0;
  };
  std::vector<Frame> dfs;

  for (StateId root : roots) {
    if (!filter.node(root) || index[root] != kUnvisited) continue;
    dfs.push_back({root});
    index[root] = lowlink[root] = next_index++;
    stack.push_back(root);
    on_stack[root] = 1;

    while (!dfs.empty()) {
      Frame& frame = dfs.back();
      const StateId u = frame.node;
      const std::span<const StateId> adj = g.successors(u);
      bool descended = false;
      while (frame.child < adj.size()) {
        const StateId v = adj[frame.child++];
        if (!filter.node(v) || !filter.edge(u, v)) continue;
        if (index[v] == kUnvisited) {
          index[v] = lowlink[v] = next_index++;
          stack.push_back(v);
          on_stack[v] = 1;
          dfs.push_back({v});
          descended = true;
          break;
        }
        if (on_stack[v]) lowlink[u] = std::min(lowlink[u], index[v]);
      }
      if (descended) continue;

      if (lowlink[u] == index[u]) {
        std::vector<StateId> comp;
        StateId w;
        do {
          w = stack.back();
          stack.pop_back();
          on_stack[w] = 0;
          comp.push_back(w);
        } while (w != u);
        components.push_back(std::move(comp));
      }
      dfs.pop_back();
      if (!dfs.empty()) {
        const StateId parent = dfs.back().node;
        lowlink[parent] = std::min(lowlink[parent], lowlink[u]);
      }
    }
  }
  // Tarjan puts every node it visits into a component (popping it off the
  // stack), so these are exactly the entries to reset.
  for (const std::vector<StateId>& comp : components) {
    for (StateId s : comp) index[s] = kUnvisited;
  }
  return components;
}

bool component_has_cycle(const StateGraph& g, const std::vector<StateId>& component,
                         const SubgraphFilter& filter) {
  if (component.empty()) return false;
  std::vector<StateId> sorted = component;
  std::sort(sorted.begin(), sorted.end());
  for (StateId u : component) {
    for (StateId v : g.successors(u)) {
      if (!std::binary_search(sorted.begin(), sorted.end(), v)) continue;
      if (filter.node(v) && filter.edge(u, v)) return true;
    }
  }
  return false;
}

}  // namespace opentla
