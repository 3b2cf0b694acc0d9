#include "dd/serialize.hpp"

#include <gtest/gtest.h>

#include <locale>
#include <sstream>

#include "dd/manager.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace cfpm::dd {
namespace {

Add sample_add(DdManager& mgr) {
  Add f = Add(mgr.bdd_var(0)).times(40.0) + Add(mgr.bdd_var(1)).times(50.0) +
          Add(mgr.bdd_var(0) & !mgr.bdd_var(2)).times(10.0);
  return f;
}

TEST(Serialize, RoundTripPreservesFunction) {
  DdManager mgr(3);
  Add f = sample_add(mgr);
  std::stringstream ss;
  write_add(ss, f);

  DdManager mgr2(3);
  Add g = read_add(ss, mgr2);
  ASSERT_EQ(g.size(), f.size());
  for (unsigned m = 0; m < 8; ++m) {
    std::uint8_t a[3] = {static_cast<std::uint8_t>(m & 1),
                         static_cast<std::uint8_t>((m >> 1) & 1),
                         static_cast<std::uint8_t>((m >> 2) & 1)};
    EXPECT_DOUBLE_EQ(g.eval(a), f.eval(a)) << "minterm " << m;
  }
}

TEST(Serialize, RoundTripIntoSameManagerIsIdentity) {
  DdManager mgr(3);
  Add f = sample_add(mgr);
  std::stringstream ss;
  write_add(ss, f);
  Add g = read_add(ss, mgr);
  EXPECT_EQ(f, g);  // hash-consing makes equality structural
}

TEST(Serialize, RandomRoundTrips) {
  Xoshiro256 rng(31337);
  for (int trial = 0; trial < 10; ++trial) {
    DdManager mgr(6);
    Add f = mgr.constant(0.0);
    for (int i = 0; i < 6; ++i) {
      Bdd v = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(6)));
      Bdd w = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(6)));
      f = f + Add(v ^ w).times(rng.next_double() * 100.0);
    }
    std::stringstream ss;
    write_add(ss, f);
    DdManager mgr2(6);
    Add g = read_add(ss, mgr2);
    EXPECT_EQ(g.size(), f.size());
    EXPECT_NEAR(g.average(), f.average(), 1e-12);
    EXPECT_NEAR(g.max_value(), f.max_value(), 1e-12);
  }
}

TEST(Serialize, TerminalOnly) {
  DdManager mgr(1);
  Add f = mgr.constant(17.5);
  std::stringstream ss;
  write_add(ss, f);
  DdManager mgr2(1);
  Add g = read_add(ss, mgr2);
  EXPECT_TRUE(g.is_terminal_node());
  EXPECT_DOUBLE_EQ(g.terminal_value(), 17.5);
}

TEST(Serialize, CommentsAndBlankLinesTolerated) {
  std::stringstream ss;
  ss << "cfpm-dd 2 add\n"
     << "# a comment\n\n"
     << "vars 2\n"
     << "nodes 3\n"
     << "0 T 0\n"
     << "1 T 5.5\n"
     << "2 N 1 1 0   # internal\n"
     << "root 2\n";
  DdManager mgr(2);
  Add f = read_add(ss, mgr);
  const std::uint8_t a1[2] = {0, 1};
  const std::uint8_t a0[2] = {0, 0};
  EXPECT_DOUBLE_EQ(f.eval(a1), 5.5);
  EXPECT_DOUBLE_EQ(f.eval(a0), 0.0);
}

TEST(Serialize, MalformedInputsThrow) {
  DdManager mgr(4);
  auto expect_parse_error = [&](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW(read_add(ss, mgr), ParseError) << text;
  };
  expect_parse_error("");
  expect_parse_error("bogus header\n");
  // The retired v1 header.
  expect_parse_error("cfpm-add 1\nvars 2\nnodes 1\n0 T 2\nroot 0\n");
  expect_parse_error("cfpm-dd 2 add\nvars 2\nnodes 0\nroot 0\n");
  expect_parse_error("cfpm-dd 2 add\nvars 2\nnodes 1\n0 X 1\nroot 0\n");
  // Child referenced before definition.
  expect_parse_error(
      "cfpm-dd 2 add\nvars 2\nnodes 2\n0 N 0 1 1\n1 T 3\nroot 0\n");
  // Variable out of declared range.
  expect_parse_error(
      "cfpm-dd 2 add\nvars 1\nnodes 3\n0 T 0\n1 T 1\n2 N 1 0 1\nroot 2\n");
  // Duplicate id.
  expect_parse_error(
      "cfpm-dd 2 add\nvars 2\nnodes 2\n0 T 0\n0 T 1\nroot 0\n");
  // Bad root.
  expect_parse_error("cfpm-dd 2 add\nvars 2\nnodes 1\n0 T 2\nroot 5\n");
}


TEST(Serialize, BddWithComplementEdgesRoundTrips) {
  // x0 XOR x1 OR NOT x2: its BDD carries complement edges (the shared-x1
  // xor core and the negated literal), so the v2 writer must emit '!'
  // tokens and the reader must reconstruct the same shared shape.
  DdManager mgr(3);
  Bdd f = (mgr.bdd_var(0) ^ mgr.bdd_var(1)) | !mgr.bdd_var(2);
  std::stringstream ss;
  write_bdd(ss, f);
  EXPECT_NE(ss.str().find("cfpm-dd 2 bdd"), std::string::npos);
  EXPECT_NE(ss.str().find('!'), std::string::npos);

  DdManager mgr2(3);
  Bdd g = read_bdd(ss, mgr2);
  EXPECT_EQ(g.size(), f.size());
  for (unsigned m = 0; m < 8; ++m) {
    std::uint8_t a[3] = {static_cast<std::uint8_t>(m & 1),
                         static_cast<std::uint8_t>((m >> 1) & 1),
                         static_cast<std::uint8_t>((m >> 2) & 1)};
    EXPECT_EQ(g.eval(a), f.eval(a)) << "minterm " << m;
  }

  // Constant zero is a complemented root edge to the 1 terminal.
  std::stringstream zs;
  write_bdd(zs, mgr.bdd_zero());
  DdManager mgr3(3);
  Bdd z = read_bdd(zs, mgr3);
  EXPECT_TRUE(z.is_zero());
}

TEST(Serialize, AddWithManyTerminalsRoundTrips) {
  DdManager mgr(3);
  Add f = sample_add(mgr);  // leaves {0, 40, 50, 90, 100}
  ASSERT_GT(f.leaf_values().size(), 2u);
  std::stringstream ss;
  write_add(ss, f);
  EXPECT_NE(ss.str().find("cfpm-dd 2 add"), std::string::npos);
  EXPECT_EQ(ss.str().find('!'), std::string::npos);  // ADD edges are plain

  DdManager mgr2(3);
  Add g = read_add(ss, mgr2);
  EXPECT_EQ(g.leaf_values(), f.leaf_values());
  for (unsigned m = 0; m < 8; ++m) {
    std::uint8_t a[3] = {static_cast<std::uint8_t>(m & 1),
                         static_cast<std::uint8_t>((m >> 1) & 1),
                         static_cast<std::uint8_t>((m >> 2) & 1)};
    EXPECT_DOUBLE_EQ(g.eval(a), f.eval(a)) << "minterm " << m;
  }
}

TEST(Serialize, CorruptHeadersAndKindMismatchesRejected) {
  DdManager mgr(2);
  auto expect_add_error = [&](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW(read_add(ss, mgr), ParseError) << text;
  };
  auto expect_bdd_error = [&](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW(read_bdd(ss, mgr), ParseError) << text;
  };
  const std::string body = "vars 1\nnodes 1\n0 T 1\nroot 0\n";
  expect_add_error("cfpm-dd 3 add\n" + body);    // unknown version
  expect_add_error("cfpm-dd 2 zdd\n" + body);    // unknown kind
  expect_add_error("cfpm-dd 2 add extra\n" + body);
  expect_add_error("cfpm-dd 2 bdd\n" + body);    // kind mismatch vs caller
  expect_bdd_error("cfpm-dd 2 add\n" + body);
  // Complement token outside the BDD fragment.
  expect_add_error(
      "cfpm-dd 2 add\nvars 1\nnodes 3\n0 T 0\n1 T 2\n2 N 0 !1 0\nroot 2\n");
  // BDD terminal other than 1.
  expect_bdd_error("cfpm-dd 2 bdd\nvars 1\nnodes 1\n0 T 0.5\nroot 0\n");
}

TEST(Serialize, RoundTripAfterSifting) {
  // Sifting changes the variable order; the format must carry it so a
  // fresh manager reproduces the same function.
  DdManager mgr(6);
  Xoshiro256 rng(505);
  Add f = mgr.constant(0.0);
  for (int i = 0; i < 8; ++i) {
    Bdd v = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(6)));
    Bdd w = mgr.bdd_var(static_cast<std::uint32_t>(rng.next_below(6)));
    f = f + Add(v & !w).times(1.0 + static_cast<double>(rng.next_below(9)));
  }
  std::vector<double> table;
  for (unsigned m = 0; m < 64; ++m) {
    std::uint8_t a[6];
    for (unsigned v = 0; v < 6; ++v) a[v] = (m >> v) & 1u;
    table.push_back(f.eval(std::span<const std::uint8_t>(a, 6)));
  }
  mgr.sift();

  std::stringstream ss;
  write_add(ss, f);
  DdManager mgr2(6);
  Add g = read_add(ss, mgr2);
  for (unsigned m = 0; m < 64; ++m) {
    std::uint8_t a[6];
    for (unsigned v = 0; v < 6; ++v) a[v] = (m >> v) & 1u;
    ASSERT_DOUBLE_EQ(g.eval(std::span<const std::uint8_t>(a, 6)), table[m])
        << "minterm " << m;
  }
}

TEST(Serialize, ManagerWithTooFewVarsRejected) {
  DdManager big(4);
  Add f = Add(big.bdd_var(3));
  std::stringstream ss;
  write_add(ss, f);
  DdManager small(2);
  EXPECT_THROW(read_add(ss, small), ParseError);
}

// ---------------------------------------------------------------------------
// Locale independence. The format is defined over the "C" decimal syntax;
// an imbued (or global) comma-decimal locale must change neither what is
// written nor how it is parsed. The writer/reader use to_chars/from_chars,
// so both tests demand BIT-exact terminals, not approximate ones.
// ---------------------------------------------------------------------------

/// Decimal comma + thousands grouping, as in de_DE — but available
/// everywhere, unlike the named system locale.
struct CommaNumpunct : std::numpunct<char> {
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

/// 0.1 etc. are not representable in binary: any parse/format that loses a
/// bit (or honors the locale) breaks the equality below.
Add awkward_add(DdManager& mgr) {
  return Add(mgr.bdd_var(0)).times(0.1) + Add(mgr.bdd_var(1)).times(12345.675) +
         Add(mgr.bdd_var(0) & mgr.bdd_var(2)).times(1.0 / 3.0);
}

void expect_bit_exact(const Add& f, const Add& g) {
  for (unsigned m = 0; m < 8; ++m) {
    std::uint8_t a[3] = {static_cast<std::uint8_t>(m & 1),
                         static_cast<std::uint8_t>((m >> 1) & 1),
                         static_cast<std::uint8_t>((m >> 2) & 1)};
    EXPECT_EQ(g.eval(a), f.eval(a)) << "minterm " << m;  // bitwise, not near
  }
}

TEST(Serialize, RoundTripBitExactUnderImbuedCommaLocale) {
  DdManager mgr(3);
  const Add f = awkward_add(mgr);

  std::stringstream ss;
  ss.imbue(std::locale(std::locale::classic(), new CommaNumpunct));
  write_add(ss, f);
  // The payload must be locale-independent: no comma decimal points, no
  // thousands grouping, whatever the stream's locale says.
  EXPECT_EQ(ss.str().find(','), std::string::npos) << ss.str();

  DdManager mgr2(3);
  const Add g = read_add(ss, mgr2);
  expect_bit_exact(f, g);
}

TEST(Serialize, RoundTripBitExactUnderGlobalCommaLocale) {
  std::locale de;
  try {
    de = std::locale("de_DE.UTF-8");
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "de_DE.UTF-8 locale not installed";
  }
  const std::locale previous = std::locale::global(de);
  struct Restore {
    std::locale saved;
    ~Restore() { std::locale::global(saved); }
  } restore{previous};

  DdManager mgr(3);
  const Add f = awkward_add(mgr);
  std::stringstream ss;  // picks up the global locale
  write_add(ss, f);
  EXPECT_EQ(ss.str().find(','), std::string::npos) << ss.str();

  DdManager mgr2(3);
  const Add g = read_add(ss, mgr2);
  expect_bit_exact(f, g);
}

TEST(Serialize, CommaDecimalTerminalIsRejectedNotMisparsed) {
  // Under the old `ss >> value` reader an imbued stream would happily
  // parse "1,5" as 1.5 (or as 1). The from_chars reader must reject it.
  std::istringstream in(
      "cfpm-dd 2 add\nvars 1\nnodes 1\n0 T 1,5\nroot 0\n");
  in.imbue(std::locale(std::locale::classic(), new CommaNumpunct));
  DdManager mgr(1);
  EXPECT_THROW(read_add(in, mgr), ParseError);
}

// ---------------------------------------------------------------------------
// CRC trailer (v2). Written files end in "crc <8 hex>"; a reader must reject
// a mismatch as a typed ParseError — never return a silently wrong DD — while
// trailerless v2 files (pre-trailer era) and v1 files keep loading.
// ---------------------------------------------------------------------------

TEST(Serialize, WriterEmitsCrcTrailerAndRoundTrips) {
  DdManager mgr(3);
  const Add f = sample_add(mgr);
  std::stringstream ss;
  write_add(ss, f);
  const std::string text = ss.str();
  // Last line is the trailer: "crc " + 8 hex digits.
  const auto pos = text.rfind("crc ");
  ASSERT_NE(pos, std::string::npos);
  EXPECT_EQ(text.substr(pos).size(), 4 + 8 + 1);  // "crc " + hex + '\n'

  DdManager mgr2(3);
  const Add g = read_add(ss, mgr2);
  EXPECT_EQ(g.size(), f.size());
}

TEST(Serialize, FlippedPayloadDigitFailsTheChecksum) {
  DdManager mgr(3);
  std::stringstream ss;
  write_add(ss, sample_add(mgr));
  std::string text = ss.str();
  // Corrupt one terminal value (40 -> 41): still perfectly parseable, so
  // only the checksum can catch it.
  const auto pos = text.find("T 40");
  ASSERT_NE(pos, std::string::npos);
  text[pos + 3] = '1';

  std::istringstream corrupted(text);
  DdManager mgr2(3);
  try {
    read_add(corrupted, mgr2);
    FAIL() << "corrupted payload was accepted";
  } catch (const ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(Serialize, TrailerlessV2FileStillLoads) {
  DdManager mgr(3);
  const Add f = sample_add(mgr);
  std::stringstream ss;
  write_add(ss, f);
  std::string text = ss.str();
  const auto pos = text.rfind("crc ");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos);  // the pre-trailer on-disk format

  std::istringstream old(text);
  DdManager mgr2(3);
  const Add g = read_add(old, mgr2);
  EXPECT_EQ(g.size(), f.size());
}

TEST(Serialize, MalformedCrcTrailerRejected) {
  DdManager mgr(3);
  std::stringstream ss;
  write_add(ss, sample_add(mgr));
  std::string text = ss.str();
  const auto pos = text.rfind("crc ");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string::npos, "crc zzzzzzzz\n");

  std::istringstream bad(text);
  DdManager mgr2(3);
  EXPECT_THROW(read_add(bad, mgr2), ParseError);
}

TEST(Serialize, TruncationMidNodesIsATypedError) {
  DdManager mgr(3);
  std::stringstream ss;
  write_add(ss, sample_add(mgr));
  const std::string text = ss.str();
  // Every proper prefix must fail with ParseError — a torn file (crash or
  // full disk under the old non-atomic writer) can never parse as a
  // smaller-but-valid DD because the node count is declared up front.
  for (const double frac : {0.3, 0.5, 0.7}) {
    std::istringstream torn(
        text.substr(0, static_cast<std::size_t>(frac * text.size())));
    DdManager mgr2(3);
    EXPECT_THROW(read_add(torn, mgr2), ParseError) << "fraction " << frac;
  }
}

TEST(Serialize, HandAnnotatedFileStillVerifiesItsTrailer) {
  // The CRC covers the canonical form of each line (comments stripped,
  // whitespace trimmed), so a user annotating a model file by hand does not
  // invalidate the checksum.
  DdManager mgr(3);
  const Add f = sample_add(mgr);
  std::stringstream ss;
  write_add(ss, f);
  std::string text = "# hand-written banner\n" + ss.str();
  const auto pos = text.find("\nvars");
  ASSERT_NE(pos, std::string::npos);
  text.insert(pos + 1, "  \t ");  // leading whitespace on the vars line

  std::istringstream annotated(text);
  DdManager mgr2(3);
  const Add g = read_add(annotated, mgr2);
  EXPECT_EQ(g.size(), f.size());
}

TEST(Serialize, ConcatenatedDdsBothReadFromOneStream) {
  // The power-model format embeds a DD mid-file, so the trailer lookahead
  // must never consume a line that belongs to the next section.
  DdManager mgr(3);
  const Add f = sample_add(mgr);
  std::stringstream ss;
  write_add(ss, f);
  write_add(ss, f);
  ss << "EPILOGUE\n";

  DdManager mgr2(3);
  const Add a = read_add(ss, mgr2);
  const Add b = read_add(ss, mgr2);
  EXPECT_EQ(a, b);
  std::string rest;
  ASSERT_TRUE(std::getline(ss, rest));
  EXPECT_EQ(rest, "EPILOGUE");
}

TEST(Serialize, TrailerlessDdLeavesFollowingLinesUntouched) {
  // Same mid-file scenario for a legacy trailerless v2 payload: the reader
  // peeks one line, sees it is not a crc trailer, and seeks back.
  DdManager mgr(3);
  const Add f = sample_add(mgr);
  std::stringstream body;
  write_add(body, f);
  std::string text = body.str();
  const auto pos = text.rfind("crc ");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos);

  std::stringstream ss(text + "load 12.5\n");
  DdManager mgr2(3);
  const Add g = read_add(ss, mgr2);
  EXPECT_EQ(g.size(), f.size());
  std::string rest;
  ASSERT_TRUE(std::getline(ss, rest));
  EXPECT_EQ(rest, "load 12.5");
}

}  // namespace
}  // namespace cfpm::dd
