#include "lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "lexer.hpp"
#include "metrics/json.hpp"

namespace raptee::lint {

namespace {

// ----------------------------------------------------------------- catalog

constexpr std::array<RuleInfo, 8> kRules{{
    {"no-wall-clock",
     "no wall-clock/time sources (std::chrono *_clock, time(), std::random_device) "
     "in deterministic dirs (src/sim, src/adversary, src/scenario, src/metrics, "
     "src/wire, src/evt)"},
    {"no-unordered-iteration",
     "iterating an unordered_map/unordered_set in src/ requires an allow annotation "
     "stating why iteration order cannot reach results, exports or logs"},
    {"no-plain-assert",
     "plain assert() is banned everywhere; use RAPTEE_ASSERT (invariant) or "
     "RAPTEE_REQUIRE (precondition) — both always-on"},
    {"explicit-memory-order",
     "every atomic load/store/exchange/fetch_*/++/--/= names its std::memory_order "
     "(src, bench, examples, tools)"},
    {"cast-allowlist",
     "reinterpret_cast/const_cast only in the audited syscall file "
     "(src/net/socket.cpp) or under an allow annotation"},
    {"no-iostream-in-lib",
     "library code (src/) never writes std::cout/cerr/printf; it returns text "
     "and the calling binary prints it"},
    {"header-hygiene",
     "headers open with #pragma once (before any code) and never say 'using namespace'"},
    {"suppression-hygiene",
     "every 'raptee-lint: allow(rule)' annotation names known rules and carries a "
     "non-empty reason"},
}};

// ------------------------------------------------------------ file scoping

constexpr std::array<std::string_view, 6> kDeterministicDirs{
    "src/sim/",     "src/adversary/", "src/scenario/",
    "src/metrics/", "src/wire/",      "src/evt/"};

/// Files audited for raw casts: the syscall shim (kernel ABI requires the
/// sockaddr puns).
constexpr std::array<std::string_view, 1> kCastAudited{"src/net/socket.cpp"};

/// The assert sink, which formats the failure text every other src/ file
/// raises instead of printing.
constexpr std::array<std::string_view, 1> kIostreamExempt{"src/common/assert.cpp"};

struct FileClass {
  bool header = false;
  bool in_src = false;
  bool in_tests = false;
  bool deterministic = false;
  bool cast_audited = false;
  bool iostream_exempt = false;
};

[[nodiscard]] FileClass classify(std::string_view rel_path) {
  FileClass fc;
  fc.header = rel_path.ends_with(".hpp") || rel_path.ends_with(".h");
  fc.in_src = rel_path.starts_with("src/");
  fc.in_tests = rel_path.starts_with("tests/");
  for (const std::string_view dir : kDeterministicDirs) {
    if (rel_path.starts_with(dir)) fc.deterministic = true;
  }
  for (const std::string_view file : kCastAudited) {
    if (rel_path == file) fc.cast_audited = true;
  }
  for (const std::string_view file : kIostreamExempt) {
    if (rel_path == file) fc.iostream_exempt = true;
  }
  return fc;
}

// ------------------------------------------------------------ suppressions

struct Suppression {
  int target_line = 0;   // line the allow covers
  int comment_line = 0;  // line the annotation lives on
  std::vector<std::string> rule_names;
  bool has_reason = false;
};

[[nodiscard]] std::string trim(std::string_view text) {
  std::size_t b = 0, e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return std::string(text.substr(b, e - b));
}

[[nodiscard]] std::vector<Suppression> parse_suppressions(
    const std::vector<Comment>& comments) {
  std::vector<Suppression> out;
  for (const Comment& comment : comments) {
    const std::string_view text = comment.text;
    // Only the exact tag-plus-allow form is an annotation; prose that
    // merely mentions the linter (docs, this file) must not parse as one.
    const std::size_t tag = text.find("raptee-lint: allow(");
    if (tag == std::string_view::npos) continue;
    Suppression s;
    s.comment_line = comment.line;
    // Inline annotations cover their own line; standalone ones the next.
    s.target_line = comment.standalone ? comment.line + 1 : comment.line;
    const std::size_t open = text.find("allow(", tag);
    const std::size_t close = text.find(')', open);
    if (close == std::string_view::npos) {
      out.push_back(std::move(s));  // malformed: no rules, no reason
      continue;
    }
    std::string rules_csv(text.substr(open + 6, close - open - 6));
    std::size_t start = 0;
    while (start <= rules_csv.size()) {
      const std::size_t comma = rules_csv.find(',', start);
      const std::string name =
          trim(std::string_view(rules_csv).substr(start, comma - start));
      if (!name.empty()) s.rule_names.push_back(name);
      if (comma == std::string::npos) break;
      start = comma + 1;
    }
    s.has_reason = !trim(text.substr(close + 1)).empty();
    out.push_back(std::move(s));
  }
  return out;
}

// --------------------------------------------------- declaration harvesting

constexpr std::array<std::string_view, 4> kUnorderedTypes{
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"};

void skip_template_args(const std::vector<Token>& toks, std::size_t& i) {
  if (i >= toks.size() || toks[i].text != "<") return;
  int depth = 0;
  for (; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    if (t == "<") ++depth;
    else if (t == ">") --depth;
    else if (t == ">>") depth -= 2;
    if (depth <= 0) {
      ++i;
      return;
    }
  }
}

/// Variable/member names declared with a type whose last type token is in
/// `type_names`: `std::unordered_map<K, V> name;` / `std::atomic<bool> b{...}`.
/// Token-level, so only same-file (plus sibling-header) declarations are
/// seen — precisely the scope a reviewer can check by eye.
void harvest_declared_names(const std::vector<Token>& toks,
                            std::span<const std::string_view> type_names,
                            std::set<std::string>& out) {
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdent) continue;
    bool match = false;
    for (const std::string_view t : type_names) {
      if (toks[i].text == t) match = true;
    }
    if (!match) continue;
    std::size_t j = i + 1;
    skip_template_args(toks, j);
    // Tolerate declarator decorations between type and name.
    while (j < toks.size() &&
           (toks[j].text == "&" || toks[j].text == "*" || toks[j].text == "&&" ||
            toks[j].text == "const")) {
      ++j;
    }
    if (j >= toks.size() || toks[j].kind != TokenKind::kIdent) continue;
    const std::string& name = toks[j].text;
    if (j + 1 >= toks.size()) continue;
    const std::string& next = toks[j + 1].text;
    if (next == ";" || next == "{" || next == "=" || next == "," || next == ")") {
      out.insert(name);
    }
  }
}

// ------------------------------------------------------------------- rules

struct RawFinding {
  int line = 0;
  std::string_view rule;
  std::string message;
};

void rule_no_wall_clock(const std::vector<Token>& toks, const FileClass& fc,
                        std::vector<RawFinding>& out) {
  if (!fc.deterministic) return;
  constexpr std::array<std::string_view, 10> kTimeCalls{
      "time",        "clock",  "gettimeofday", "clock_gettime", "timespec_get",
      "localtime",   "gmtime", "mktime",       "srand",         "rand"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdent) continue;
    const std::string& t = toks[i].text;
    if (t.size() > 6 && t.ends_with("_clock")) {
      out.push_back({toks[i].line, "no-wall-clock",
                     "wall-clock source '" + t +
                         "' in deterministic code; time must come from round "
                         "numbers or obs-layer instrumentation"});
      continue;
    }
    if (t == "random_device") {
      out.push_back({toks[i].line, "no-wall-clock",
                     "std::random_device in deterministic code; seed from the "
                     "scenario's forked Rng streams instead"});
      continue;
    }
    const bool member = i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
    const bool called = i + 1 < toks.size() && toks[i + 1].text == "(";
    if (member || !called) continue;
    for (const std::string_view call : kTimeCalls) {
      if (t == call) {
        out.push_back({toks[i].line, "no-wall-clock",
                       "call to '" + t +
                           "()' in deterministic code; wall time and ambient "
                           "randomness are banned here"});
      }
    }
  }
}

void rule_no_unordered_iteration(const std::vector<Token>& toks, const FileClass& fc,
                                 const std::set<std::string>& unordered_names,
                                 std::vector<RawFinding>& out) {
  if (!fc.in_src || unordered_names.empty()) return;
  const auto flag = [&out](int line, const std::string& name, const char* how) {
    out.push_back({line, "no-unordered-iteration",
                   std::string(how) + " over unordered container '" + name +
                       "'; iterate a sorted copy if order can reach output, or "
                       "annotate why it cannot"});
  };
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const std::string& t = toks[i].text;
    // for (decl : range) — any harvested name inside the range expression.
    if (t == "for" && toks[i].kind == TokenKind::kIdent && i + 1 < toks.size() &&
        toks[i + 1].text == "(") {
      int depth = 0;
      bool past_colon = false;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].text == "(") ++depth;
        else if (toks[j].text == ")") {
          if (--depth == 0) break;
        } else if (toks[j].text == ":" && depth == 1) {
          past_colon = true;
        } else if (past_colon && toks[j].kind == TokenKind::kIdent &&
                   unordered_names.contains(toks[j].text)) {
          flag(toks[j].line, toks[j].text, "range-for");
          break;
        }
      }
      continue;
    }
    // name.begin() / name.cbegin() / name.rbegin() — explicit iterator loops.
    if (toks[i].kind == TokenKind::kIdent && unordered_names.contains(t) &&
        i + 2 < toks.size() && (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
        (toks[i + 2].text == "begin" || toks[i + 2].text == "cbegin" ||
         toks[i + 2].text == "rbegin")) {
      flag(toks[i].line, t, "iterator loop");
      continue;
    }
    // std::erase_if(name, pred) visits every element too.
    if (t == "erase_if" && toks[i].kind == TokenKind::kIdent) {
      for (std::size_t j = i + 1; j < toks.size() && j < i + 6; ++j) {
        if (toks[j].text == ",") break;
        if (toks[j].kind == TokenKind::kIdent && unordered_names.contains(toks[j].text)) {
          flag(toks[j].line, toks[j].text, "erase_if");
          break;
        }
      }
    }
  }
}

void rule_no_plain_assert(const std::vector<Token>& toks, std::vector<RawFinding>& out) {
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind == TokenKind::kIdent && toks[i].text == "assert" &&
        toks[i + 1].text == "(") {
      out.push_back({toks[i].line, "no-plain-assert",
                     "plain assert() compiles out under -DNDEBUG; use RAPTEE_ASSERT "
                     "(invariant) or RAPTEE_REQUIRE (precondition)"});
    }
  }
}

void rule_explicit_memory_order(const std::vector<Token>& toks, const FileClass& fc,
                                const std::set<std::string>& atomic_names,
                                bool has_atomic_include,
                                std::vector<RawFinding>& out) {
  if (fc.in_tests) return;  // tests may lean on seq_cst defaults
  if (!has_atomic_include && atomic_names.empty()) return;
  constexpr std::array<std::string_view, 9> kOrderedCalls{
      "load",      "store",    "exchange",
      "fetch_add", "fetch_sub", "fetch_and",
      "fetch_or",  "fetch_xor", "compare_exchange_weak"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdent) continue;
    const std::string& t = toks[i].text;
    // member call without a memory_order argument
    bool is_call_name = t == "compare_exchange_strong";
    for (const std::string_view call : kOrderedCalls) {
      if (t == call) is_call_name = true;
    }
    if (is_call_name && i > 0 &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
        i + 1 < toks.size() && toks[i + 1].text == "(") {
      bool has_order = false;
      int depth = 0;
      for (std::size_t j = i + 1; j < toks.size(); ++j) {
        if (toks[j].text == "(") ++depth;
        else if (toks[j].text == ")") {
          if (--depth == 0) break;
        } else if (toks[j].kind == TokenKind::kIdent &&
                   toks[j].text.starts_with("memory_order")) {
          has_order = true;
        }
      }
      if (!has_order) {
        out.push_back({toks[i].line, "explicit-memory-order",
                       "atomic ." + t +
                           "() without an explicit std::memory_order; defaults "
                           "to seq_cst — say so if you mean it"});
      }
      continue;
    }
    // ++x / x++ / --x / x-- / x = v on a declared atomic
    if (atomic_names.contains(t)) {
      const bool inc_dec =
          (i > 0 && (toks[i - 1].text == "++" || toks[i - 1].text == "--")) ||
          (i + 1 < toks.size() && (toks[i + 1].text == "++" || toks[i + 1].text == "--"));
      if (inc_dec) {
        out.push_back({toks[i].line, "explicit-memory-order",
                       "bare ++/-- on atomic '" + t +
                           "' is a seq_cst RMW; use fetch_add/fetch_sub with an "
                           "explicit order"});
        continue;
      }
      // `> name = ...` is the declaration's initializer (construction, not
      // an atomic store) — only flag assignments to an existing atomic.
      if (i + 1 < toks.size() && toks[i + 1].text == "=" &&
          (i == 0 || (toks[i - 1].text != "." && toks[i - 1].text != "->" &&
                      toks[i - 1].text != ">" && toks[i - 1].text != ">>" &&
                      toks[i - 1].kind != TokenKind::kIdent))) {
        out.push_back({toks[i].line, "explicit-memory-order",
                       "assignment to atomic '" + t +
                           "' is an implicit seq_cst store; use .store(v, order)"});
      }
    }
  }
}

void rule_cast_allowlist(const std::vector<Token>& toks, const FileClass& fc,
                         std::vector<RawFinding>& out) {
  if (fc.cast_audited) return;
  for (const Token& tok : toks) {
    if (tok.kind != TokenKind::kIdent) continue;
    if (tok.text == "reinterpret_cast" || tok.text == "const_cast") {
      out.push_back({tok.line, "cast-allowlist",
                     tok.text +
                         " outside the audited syscall file; move the "
                         "cast there or annotate the audited reason"});
    }
  }
}

void rule_no_iostream_in_lib(const std::vector<Token>& toks, const FileClass& fc,
                             std::vector<RawFinding>& out) {
  if (!fc.in_src || fc.iostream_exempt) return;
  constexpr std::array<std::string_view, 3> kStreams{"cout", "cerr", "clog"};
  constexpr std::array<std::string_view, 4> kPrints{"printf", "fprintf", "puts",
                                                    "putchar"};
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != TokenKind::kIdent) continue;
    const std::string& t = toks[i].text;
    for (const std::string_view s : kStreams) {
      if (t == s && i > 0 && toks[i - 1].text == "::") {
        out.push_back({toks[i].line, "no-iostream-in-lib",
                       "std::" + t +
                           " in library code; return the text and let the "
                           "calling binary print it"});
      }
    }
    for (const std::string_view p : kPrints) {
      if (t == p && i + 1 < toks.size() && toks[i + 1].text == "(" &&
          (i == 0 || (toks[i - 1].text != "." && toks[i - 1].text != "->"))) {
        out.push_back({toks[i].line, "no-iostream-in-lib",
                       t + "() in library code; return the text and let the "
                           "calling binary print it"});
      }
    }
  }
}

[[nodiscard]] bool is_pragma_once(const Token& tok) {
  if (tok.kind != TokenKind::kPreprocessor) return false;
  std::istringstream in(tok.text);
  std::string hash, pragma, once;
  in >> hash >> pragma >> once;
  if (hash == "#pragma") return pragma == "once";  // '#pragma' without space
  return hash == "#" && pragma == "pragma" && once == "once";
}

void rule_header_hygiene(const std::vector<Token>& toks, const FileClass& fc,
                         std::vector<RawFinding>& out) {
  if (!fc.header) return;
  bool seen_pragma_once = false;
  bool seen_code = false;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& tok = toks[i];
    if (is_pragma_once(tok)) {
      if (seen_code) {
        out.push_back({tok.line, "header-hygiene",
                       "#pragma once must precede all code in the header"});
      }
      seen_pragma_once = true;
      continue;
    }
    if (tok.kind != TokenKind::kPreprocessor) seen_code = true;
    if (tok.kind == TokenKind::kIdent && tok.text == "using" && i + 1 < toks.size() &&
        toks[i + 1].kind == TokenKind::kIdent && toks[i + 1].text == "namespace") {
      out.push_back({tok.line, "header-hygiene",
                     "'using namespace' in a header leaks into every includer; "
                     "qualify names instead"});
    }
  }
  if (!seen_pragma_once) {
    out.push_back({1, "header-hygiene", "header is missing #pragma once"});
  }
}

// --------------------------------------------------------------- pipeline

[[nodiscard]] bool includes_atomic(const std::vector<Token>& toks) {
  for (const Token& tok : toks) {
    if (tok.kind == TokenKind::kPreprocessor &&
        tok.text.find("include") != std::string::npos &&
        (tok.text.find("<atomic>") != std::string::npos ||
         tok.text.find("\"atomic\"") != std::string::npos)) {
      return true;
    }
  }
  return false;
}

constexpr std::array<std::string_view, 1> kAtomicTypes{"atomic"};

}  // namespace

std::span<const RuleInfo> rules() { return kRules; }

bool rule_exists(std::string_view name) {
  for (const RuleInfo& rule : kRules) {
    if (rule.name == name) return true;
  }
  return false;
}

bool Config::enabled(std::string_view rule) const {
  if (only.empty()) return true;
  for (const std::string& name : only) {
    if (name == rule) return true;
  }
  return false;
}

std::vector<Finding> lint_source(std::string_view rel_path, std::string_view source,
                                 const Config& config,
                                 std::string_view sibling_header) {
  const FileClass fc = classify(rel_path);
  const LexResult lexed = lex(source);
  const std::vector<Suppression> suppressions = parse_suppressions(lexed.comments);

  std::set<std::string> unordered_names;
  std::set<std::string> atomic_names;
  harvest_declared_names(lexed.tokens, kUnorderedTypes, unordered_names);
  harvest_declared_names(lexed.tokens, kAtomicTypes, atomic_names);
  bool has_atomic_include = includes_atomic(lexed.tokens);
  if (!sibling_header.empty()) {
    const LexResult header = lex(sibling_header);
    harvest_declared_names(header.tokens, kUnorderedTypes, unordered_names);
    harvest_declared_names(header.tokens, kAtomicTypes, atomic_names);
    has_atomic_include = has_atomic_include || includes_atomic(header.tokens);
  }

  std::vector<RawFinding> raw;
  if (config.enabled("no-wall-clock")) rule_no_wall_clock(lexed.tokens, fc, raw);
  if (config.enabled("no-unordered-iteration")) {
    rule_no_unordered_iteration(lexed.tokens, fc, unordered_names, raw);
  }
  if (config.enabled("no-plain-assert")) rule_no_plain_assert(lexed.tokens, raw);
  if (config.enabled("explicit-memory-order")) {
    rule_explicit_memory_order(lexed.tokens, fc, atomic_names, has_atomic_include, raw);
  }
  if (config.enabled("cast-allowlist")) rule_cast_allowlist(lexed.tokens, fc, raw);
  if (config.enabled("no-iostream-in-lib")) rule_no_iostream_in_lib(lexed.tokens, fc, raw);
  if (config.enabled("header-hygiene")) rule_header_hygiene(lexed.tokens, fc, raw);

  std::vector<Finding> out;
  for (const RawFinding& finding : raw) {
    bool suppressed = false;
    for (const Suppression& s : suppressions) {
      if (s.target_line != finding.line || !s.has_reason) continue;
      for (const std::string& name : s.rule_names) {
        if (name == finding.rule) suppressed = true;
      }
    }
    if (!suppressed) {
      out.push_back(Finding{std::string(rel_path), finding.line,
                            std::string(finding.rule), finding.message});
    }
  }

  if (config.enabled("suppression-hygiene")) {
    for (const Suppression& s : suppressions) {
      if (s.rule_names.empty()) {
        out.push_back(Finding{std::string(rel_path), s.comment_line,
                              "suppression-hygiene",
                              "malformed annotation: expected "
                              "'raptee-lint: allow(rule, ...) reason'"});
        continue;
      }
      for (const std::string& name : s.rule_names) {
        if (!rule_exists(name)) {
          out.push_back(Finding{std::string(rel_path), s.comment_line,
                                "suppression-hygiene",
                                "annotation allows unknown rule '" + name + "'"});
        }
      }
      if (!s.has_reason) {
        out.push_back(Finding{std::string(rel_path), s.comment_line,
                              "suppression-hygiene",
                              "suppression is missing its mandatory reason; say "
                              "why the rule does not apply here"});
      }
    }
  }

  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return out;
}

namespace {

[[nodiscard]] std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

[[nodiscard]] bool lintable(const std::filesystem::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".cpp" || ext == ".cc" || ext == ".hpp" || ext == ".h";
}

}  // namespace

std::vector<Finding> lint_tree(const std::string& root, const Config& config,
                               std::size_t* files_scanned) {
  namespace fs = std::filesystem;
  constexpr std::array<std::string_view, 5> kScanDirs{"src", "bench", "examples",
                                                      "tests", "tools"};
  std::vector<std::string> rel_paths;
  for (const std::string_view dir : kScanDirs) {
    const fs::path base = fs::path(root) / dir;
    if (!fs::is_directory(base)) continue;
    for (const fs::directory_entry& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file() || !lintable(entry.path())) continue;
      rel_paths.push_back(
          fs::path(entry.path()).lexically_relative(root).generic_string());
    }
  }
  std::sort(rel_paths.begin(), rel_paths.end());

  std::vector<Finding> out;
  for (const std::string& rel : rel_paths) {
    const std::string source = read_file(fs::path(root) / rel);
    std::string sibling;
    if (rel.ends_with(".cpp")) {
      const fs::path header = (fs::path(root) / rel).replace_extension(".hpp");
      if (fs::is_regular_file(header)) sibling = read_file(header);
    }
    std::vector<Finding> findings = lint_source(rel, source, config, sibling);
    out.insert(out.end(), std::make_move_iterator(findings.begin()),
               std::make_move_iterator(findings.end()));
  }
  if (files_scanned != nullptr) *files_scanned = rel_paths.size();
  // Per-file results are already (line, rule)-sorted and files were visited
  // in sorted order, so `out` is globally ordered by (file, line, rule).
  return out;
}

std::string report_json(const std::vector<Finding>& findings,
                        std::size_t files_scanned, const Config& config) {
  metrics::JsonArray rule_names;
  for (const RuleInfo& rule : kRules) {
    if (config.enabled(rule.name)) rule_names.item(rule.name);
  }
  metrics::JsonArray items;
  for (const Finding& finding : findings) {
    metrics::JsonObject item;
    item.field("file", finding.file)
        .field("line", static_cast<std::int64_t>(finding.line))
        .field("rule", finding.rule)
        .field("message", finding.message);
    items.item_raw(item.str());
  }
  metrics::JsonObject doc;
  doc.field("schema", "raptee.lint/1")
      .field("files_scanned", static_cast<std::uint64_t>(files_scanned))
      .field_raw("rules", rule_names.str())
      .field("finding_count", static_cast<std::uint64_t>(findings.size()))
      .field_raw("findings", items.str());
  return doc.str() + "\n";
}

}  // namespace raptee::lint
