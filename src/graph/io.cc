#include "src/graph/io.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "src/graph/builder.h"

namespace mto {
namespace {

/// Parses one node-id token: a plain decimal uint64. Negative tokens and
/// (without compaction) ids that do not fit NodeId are rejected, naming the
/// line — a cast would silently wrap them onto other nodes.
uint64_t ParseId(const std::string& token, bool compact_ids, size_t line_no,
                 const std::string& line) {
  const auto where = " on line " + std::to_string(line_no) + ": " + line;
  if (!token.empty() && token[0] == '-') {
    throw std::runtime_error("edge list: negative node id" + where);
  }
  uint64_t raw = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, raw);
  if (ec == std::errc::result_out_of_range) {
    throw std::runtime_error("edge list: node id out of range" + where);
  }
  if (ec != std::errc() || ptr != end) {
    throw std::runtime_error("edge list: malformed line" + where);
  }
  if (!compact_ids && raw >= kInvalidNode) {
    throw std::runtime_error("edge list: node id out of range" + where);
  }
  return raw;
}

/// Parses `u v` lines into the builder via `add`, optionally compacting ids.
template <typename AddFn>
void ParseLines(std::istream& in, bool compact_ids, AddFn add) {
  std::unordered_map<uint64_t, NodeId> remap;
  auto resolve = [&](uint64_t raw) -> NodeId {
    if (!compact_ids) return static_cast<NodeId>(raw);
    auto [it, inserted] = remap.try_emplace(raw, static_cast<NodeId>(remap.size()));
    return it->second;
  };
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string ta, tb;
    if (!(ls >> ta >> tb)) {
      throw std::runtime_error("edge list: malformed line " +
                               std::to_string(line_no) + ": " + line);
    }
    // Sequence the two resolutions explicitly: argument evaluation order is
    // unspecified, and compaction must assign ids in appearance order.
    NodeId from = resolve(ParseId(ta, compact_ids, line_no, line));
    NodeId to = resolve(ParseId(tb, compact_ids, line_no, line));
    add(from, to);
  }
}

}  // namespace

Graph ReadEdgeList(std::istream& in, bool compact_ids) {
  GraphBuilder builder;
  ParseLines(in, compact_ids,
             [&](NodeId u, NodeId v) { builder.AddEdge(u, v); });
  return builder.Build();
}

Graph ReadDirectedAsMutual(std::istream& in, bool compact_ids) {
  GraphBuilder builder;
  ParseLines(in, compact_ids,
             [&](NodeId u, NodeId v) { builder.AddArc(u, v); });
  return builder.BuildMutual();
}

Graph ReadEdgeListFile(const std::string& path, bool compact_ids) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open edge list: " + path);
  return ReadEdgeList(in, compact_ids);
}

void WriteEdgeList(const Graph& g, std::ostream& out) {
  out << "# nodes " << g.num_nodes() << " edges " << g.num_edges() << "\n";
  for (const Edge& e : g.Edges()) out << e.u << " " << e.v << "\n";
}

void WriteEdgeListFile(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for write: " + path);
  WriteEdgeList(g, out);
}

}  // namespace mto
