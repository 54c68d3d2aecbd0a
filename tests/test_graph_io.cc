// Tests for graph serialization (DESIGN.md S5): AdjacencyGraph text
// round-trips, binary round-trips, edge-list ingest, and malformed-input
// rejection.
#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "graph/generators.h"
#include "util/rng.h"

using namespace ligra;

namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_(::testing::TempDir() + "/" + name) {}
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }
  void write(const std::string& content) {
    std::ofstream out(path_);
    out << content;
  }

 private:
  std::string path_;
};

}  // namespace

TEST(GraphIo, AdjacencyTextRoundTripSymmetric) {
  TempFile f("sym.adj");
  auto g = gen::rmat_graph(9, 1 << 11, 3);
  io::write_adjacency_graph(f.path(), g);
  auto g2 = io::read_adjacency_graph(f.path(), /*symmetric=*/true);
  EXPECT_EQ(g, g2);
}

TEST(GraphIo, AdjacencyTextRoundTripDirected) {
  TempFile f("dir.adj");
  auto g = gen::rmat_digraph(9, 1 << 11, 4);
  io::write_adjacency_graph(f.path(), g);
  auto g2 = io::read_adjacency_graph(f.path(), /*symmetric=*/false);
  EXPECT_EQ(g, g2);  // includes the rebuilt transpose
}

TEST(GraphIo, WeightedAdjacencyTextRoundTrip) {
  TempFile f("w.adj");
  auto g = gen::add_random_weights(gen::rmat_graph(8, 1 << 10, 5), 1, 50, 2);
  io::write_adjacency_graph(f.path(), g);
  auto g2 = io::read_weighted_adjacency_graph(f.path(), /*symmetric=*/true);
  EXPECT_EQ(g, g2);
}

TEST(GraphIo, HandcraftedAdjacencyFile) {
  // 3 vertices: 0 -> {1, 2}, 1 -> {2}, 2 -> {}.
  TempFile f("hand.adj");
  f.write("AdjacencyGraph\n3\n3\n0\n2\n3\n1\n2\n2\n");
  auto g = io::read_adjacency_graph(f.path(), /*symmetric=*/false);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_EQ(g.in_degree(2), 2u);
}

TEST(GraphIo, RejectsBadHeader) {
  TempFile f("bad.adj");
  f.write("NotAGraph\n1\n0\n0\n");
  EXPECT_THROW(io::read_adjacency_graph(f.path(), true), std::runtime_error);
  // Weighted reader on unweighted file.
  f.write("AdjacencyGraph\n1\n0\n0\n");
  EXPECT_THROW(io::read_weighted_adjacency_graph(f.path(), true),
               std::runtime_error);
}

TEST(GraphIo, RejectsTruncatedFile) {
  TempFile f("trunc.adj");
  f.write("AdjacencyGraph\n3\n3\n0\n2\n");  // missing offsets/edges
  EXPECT_THROW(io::read_adjacency_graph(f.path(), true), std::runtime_error);
}

TEST(GraphIo, RejectsOutOfRangeTarget) {
  TempFile f("oor.adj");
  f.write("AdjacencyGraph\n2\n1\n0\n1\n7\n");
  EXPECT_THROW(io::read_adjacency_graph(f.path(), false), std::runtime_error);
}

TEST(GraphIo, TextErrorsCarryPathAndLine) {
  // Every parse error names the file and the 1-based line it occurred on.
  TempFile f("where.adj");
  f.write("AdjacencyGraph\n2\n1\n0\n1\nbogus\n");  // bad edge target, line 6
  try {
    io::read_adjacency_graph(f.path(), false);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& err) {
    std::string msg = err.what();
    EXPECT_NE(msg.find(f.path()), std::string::npos) << msg;
    EXPECT_NE(msg.find(":6:"), std::string::npos) << msg;
  }
}

TEST(GraphIo, EdgeListErrorsCarryPathAndLine) {
  TempFile f("where.el");
  f.write("# comment\n0 1\n1 oops\n");  // bad target on line 3
  try {
    io::read_edge_list(f.path(), true);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& err) {
    std::string msg = err.what();
    EXPECT_NE(msg.find(f.path()), std::string::npos) << msg;
    EXPECT_NE(msg.find(":3:"), std::string::npos) << msg;
  }
}

TEST(GraphIo, BinaryShortReadNamesPath) {
  TempFile full("full.bin");
  io::write_binary_graph(full.path(), gen::path_graph(64));
  std::ifstream in(full.path(), std::ios::binary);
  in.seekg(0, std::ios::end);
  std::string data(static_cast<size_t>(in.tellg()) / 2, '\0');
  in.seekg(0);
  in.read(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(in.good());
  TempFile cut("cut.bin");
  cut.write(data);
  try {
    io::read_binary_graph(cut.path());
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& err) {
    EXPECT_NE(std::string(err.what()).find(cut.path()), std::string::npos)
        << err.what();
  }
}

TEST(GraphIo, RejectsMissingFile) {
  EXPECT_THROW(io::read_adjacency_graph("/nonexistent/x.adj", true),
               std::runtime_error);
  EXPECT_THROW(io::read_binary_graph("/nonexistent/x.bin"), std::runtime_error);
}

TEST(GraphIo, BinaryRoundTripSymmetric) {
  TempFile f("g.bin");
  auto g = gen::rmat_graph(10, 1 << 12, 6);
  io::write_binary_graph(f.path(), g);
  EXPECT_EQ(io::read_binary_graph(f.path()), g);
}

TEST(GraphIo, BinaryRoundTripDirected) {
  TempFile f("d.bin");
  auto g = gen::rmat_digraph(10, 1 << 12, 7);
  io::write_binary_graph(f.path(), g);
  EXPECT_EQ(io::read_binary_graph(f.path()), g);
}

TEST(GraphIo, BinaryRoundTripWeighted) {
  TempFile f("w.bin");
  auto g = gen::add_random_weights(gen::grid3d_graph(6), 1, 9, 8);
  io::write_binary_graph(f.path(), g);
  EXPECT_EQ(io::read_weighted_binary_graph(f.path()), g);
}

TEST(GraphIo, BinaryWeightMismatchRejected) {
  TempFile f("mix.bin");
  io::write_binary_graph(f.path(), gen::path_graph(4));
  EXPECT_THROW(io::read_weighted_binary_graph(f.path()), std::runtime_error);
}

TEST(GraphIo, BinaryRejectsGarbage) {
  TempFile f("junk.bin");
  f.write("this is not a graph file at all, not even close");
  EXPECT_THROW(io::read_binary_graph(f.path()), std::runtime_error);
}

TEST(GraphIo, EdgeListWithCommentsAndAutoN) {
  TempFile f("el.txt");
  f.write("# comment line\n0 1\n1 2\n% another comment\n2 3\n");
  auto g = io::read_edge_list(f.path(), /*symmetrize=*/true);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_TRUE(g.has_edge(3, 2));
}

TEST(GraphIo, WeightedEdgeList) {
  TempFile f("wel.txt");
  f.write("0 1 10\n1 2 -4\n");
  auto g = io::read_weighted_edge_list(f.path(), /*symmetrize=*/false);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.out_weight(0, 0), 10);
  EXPECT_EQ(g.out_weight(1, 0), -4);
}

TEST(GraphIo, EdgeListExplicitN) {
  TempFile f("eln.txt");
  f.write("0 1\n");
  auto g = io::read_edge_list(f.path(), false, 10);
  EXPECT_EQ(g.num_vertices(), 10u);
  EXPECT_EQ(g.out_degree(9), 0u);
}

TEST(GraphIo, FuzzedTextInputsThrowCleanly) {
  // Malformed inputs must throw std::runtime_error — never crash, hang, or
  // silently succeed. Seeds generate varied garbage deterministically.
  TempFile f("fuzz.adj");
  sequential_rng r(123);
  // (No huge-n pieces: a file legitimately declaring a billion vertices
  // allocates accordingly; that is the format's contract, not a bug.)
  const std::string pieces[] = {
      "AdjacencyGraph", "WeightedAdjacencyGraph", "-1", "999999999999",
      "3",  "0",  "abc", "#", "\n", " ", "1e9", "--", "17"};
  for (int trial = 0; trial < 200; trial++) {
    std::string content;
    size_t len = r.bounded(12);
    for (size_t i = 0; i < len; i++) {
      content += pieces[r.bounded(sizeof(pieces) / sizeof(pieces[0]))];
      content += (r.bounded(2) != 0) ? "\n" : " ";
    }
    f.write(content);
    try {
      auto g = io::read_adjacency_graph(f.path(), true);
      // Accepting is fine only if the result is internally consistent.
      EXPECT_EQ(g.computed_num_edges(), g.num_edges());
    } catch (const std::runtime_error&) {
      // expected for most garbage
    } catch (const std::invalid_argument&) {
      // builder-level rejection is fine too
    }
  }
}

TEST(GraphIo, FuzzedBinaryInputsThrowCleanly) {
  TempFile f("fuzz.bin");
  sequential_rng r(321);
  for (int trial = 0; trial < 100; trial++) {
    std::string content;
    size_t len = r.bounded(200);
    for (size_t i = 0; i < len; i++)
      content += static_cast<char>(r.bounded(256));
    // Sometimes start with the real magic so header parsing goes deeper.
    if (trial % 3 == 0) content = "LGRB" + content;
    f.write(content);
    EXPECT_THROW(io::read_binary_graph(f.path()), std::runtime_error)
        << "trial " << trial;
  }
}

TEST(GraphIo, TruncatedBinaryAfterValidHeaderThrows) {
  TempFile full("trunc_full.bin"), cut("trunc_cut.bin");
  auto g = gen::rmat_graph(8, 1 << 10, 1);
  io::write_binary_graph(full.path(), g);
  std::ifstream in(full.path(), std::ios::binary);
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  for (size_t keep : {data.size() / 2, data.size() - 1, size_t{30}}) {
    cut.write(data.substr(0, keep));
    EXPECT_THROW(io::read_binary_graph(cut.path()), std::runtime_error)
        << "kept " << keep;
  }
}

TEST(GraphIo, EmptyGraphRoundTrip) {
  TempFile f("empty.adj");
  auto g = graph::from_edges(3, {}, {.symmetrize = true});
  io::write_adjacency_graph(f.path(), g);
  auto g2 = io::read_adjacency_graph(f.path(), true);
  EXPECT_EQ(g2.num_vertices(), 3u);
  EXPECT_EQ(g2.num_edges(), 0u);
}

// --- typed errors & binary structural hardening (docs/ROBUSTNESS.md) --------

TEST(GraphIo, ErrorsAreTyped) {
  // All I/O failures derive from io::io_error; parse/structure failures are
  // the io::format_error subtype carrying the offending path.
  EXPECT_THROW(io::read_adjacency_graph("/nonexistent/x.adj", true),
               io::io_error);
  TempFile f("typed.adj");
  f.write("NotAGraph\n1\n0\n0\n");
  try {
    io::read_adjacency_graph(f.path(), true);
    FAIL() << "expected io::format_error";
  } catch (const io::format_error& err) {
    EXPECT_EQ(err.path(), f.path());
  }
}

namespace {

// Writes a well-formed binary graph, then lets the test stomp on bytes at a
// given offset before reading it back.
std::string binary_bytes_of(const graph& g, TempFile& f) {
  io::write_binary_graph(f.path(), g);
  std::ifstream in(f.path(), std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

constexpr size_t kBinHeaderBytes = 24;  // magic + version + flags + n + m

}  // namespace

TEST(GraphIo, BinaryOutOfRangeTargetIsFormatError) {
  TempFile f("oor.bin");
  auto g = gen::rmat_graph(7, 1 << 9, 11);
  std::string data = binary_bytes_of(g, f);
  // First edge target lives right after the offsets array.
  const size_t pos =
      kBinHeaderBytes + (static_cast<size_t>(g.num_vertices()) + 1) * sizeof(edge_id);
  const uint32_t bad = 0xFFFFFFFEu;
  data.replace(pos, sizeof(bad),
               std::string(reinterpret_cast<const char*>(&bad), sizeof(bad)));
  f.write(data);
  EXPECT_THROW(io::read_binary_graph(f.path()), io::format_error);
}

TEST(GraphIo, BinaryNonMonotoneOffsetsAreFormatError) {
  TempFile f("mono.bin");
  auto g = gen::rmat_graph(7, 1 << 9, 12);
  std::string data = binary_bytes_of(g, f);
  // Bump offsets[1] past offsets[n]: the offset array is no longer
  // monotone, which must be caught before the graph is published.
  const size_t pos = kBinHeaderBytes + sizeof(edge_id);
  const edge_id bad = g.num_edges() + 100;
  data.replace(pos, sizeof(bad),
               std::string(reinterpret_cast<const char*>(&bad), sizeof(bad)));
  f.write(data);
  EXPECT_THROW(io::read_binary_graph(f.path()), io::format_error);
}

TEST(GraphIo, BinaryHugeEdgeCountRejectedBeforeAllocation) {
  // A corrupt header claiming 2^59 edges must be rejected by the size
  // precheck, not by attempting a massive allocation.
  TempFile f("huge.bin");
  std::string data = binary_bytes_of(gen::path_graph(8), f);
  const uint64_t huge_m = uint64_t{1} << 59;
  data.replace(16, sizeof(huge_m),
               std::string(reinterpret_cast<const char*>(&huge_m),
                           sizeof(huge_m)));
  f.write(data);
  EXPECT_THROW(io::read_binary_graph(f.path()), io::format_error);
}

TEST(GraphIo, BinarySentinelVertexCountRejected) {
  // n == kNoVertex would make the sentinel a valid id; the reader rejects it.
  TempFile f("sentinel.bin");
  std::string data = binary_bytes_of(gen::path_graph(8), f);
  const uint32_t bad_n = 0xFFFFFFFFu;
  data.replace(12, sizeof(bad_n),
               std::string(reinterpret_cast<const char*>(&bad_n),
                           sizeof(bad_n)));
  f.write(data);
  EXPECT_THROW(io::read_binary_graph(f.path()), io::format_error);
}

TEST(GraphIo, ValidateGraphAcceptsRoundTrips) {
  auto g = gen::rmat_graph(8, 1 << 10, 13);
  EXPECT_NO_THROW(io::validate_graph(g, "unit"));
  auto d = gen::rmat_digraph(8, 1 << 10, 14);
  EXPECT_NO_THROW(io::validate_graph(d, "unit"));
  auto w = gen::add_random_weights(g, 1, 9, 15);
  EXPECT_NO_THROW(io::validate_graph(w, "unit"));
}
