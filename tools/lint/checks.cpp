/// @file checks.cpp
/// The six wdc_lint checks, implemented over SourceModel (see lint.hpp for
/// the invariant each one protects).

#include <algorithm>
#include <cctype>
#include <map>
#include <memory>
#include <regex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "lint/lint.hpp"
#include "lint/source_model.hpp"

namespace wdc::lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// Offsets at which `word` occurs as a whole word in `text`.
std::vector<std::size_t> word_positions(const std::string& text,
                                        const std::string& word) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while ((pos = text.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !ident_char(text[pos - 1]);
    const std::size_t end = pos + word.size();
    const bool right_ok = end >= text.size() || !ident_char(text[end]);
    if (left_ok && right_ok) out.push_back(pos);
    pos = end;
  }
  return out;
}

std::string trimmed(const std::string& s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b])) != 0) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  return s.substr(b, e - b);
}

std::string first_ident(const std::string& s) {
  std::size_t i = 0;
  while (i < s.size() && !ident_char(s[i])) ++i;
  std::size_t b = i;
  while (i < s.size() && ident_char(s[i])) ++i;
  return s.substr(b, i - b);
}

std::string last_ident(const std::string& s) {
  std::size_t e = s.size();
  while (e > 0 && !ident_char(s[e - 1])) --e;
  std::size_t b = e;
  while (b > 0 && ident_char(s[b - 1])) --b;
  return s.substr(b, e - b);
}

void add_finding(std::vector<Finding>& out, const SourceModel& m,
                 std::size_t pos, Check check, std::string message) {
  const int line = m.line_of(pos);
  if (m.suppressed(line, to_string(check))) return;
  out.push_back({m.path(), line, m.col_of(pos), check, std::move(message)});
}

// --------------------------------------------------------------- determinism

const char* const kSimDirs[] = {"src/sim",   "src/engine", "src/channel",
                                "src/mac",   "src/cache",  "src/faults"};

bool in_sim_dirs(const std::string& path) {
  std::string rooted = "/";
  rooted += path;
  for (const char* d : kSimDirs) {
    // Match ".../src/sim/..." regardless of the repo-root prefix.
    std::string needle = "/";
    needle += d;
    needle += '/';
    if (rooted.find(needle) != std::string::npos) return true;
  }
  return false;
}

void check_determinism(const SourceModel& m, std::vector<Finding>& out) {
  if (!in_sim_dirs(m.path())) return;
  const std::string& code = m.code();
  for (const std::size_t pos : word_positions(code, "system_clock"))
    add_finding(out, m, pos, Check::kDeterminism,
                "std::chrono::system_clock is a wall-clock source; simulation "
                "code must be a pure function of the scenario seed (only "
                "tools/ and bench/ may touch the wall clock)");
  for (const std::size_t pos : word_positions(code, "random_device"))
    add_finding(out, m, pos, Check::kDeterminism,
                "std::random_device is ambient nondeterminism; derive every "
                "stream from the scenario seed via util/rng.hpp");
  for (const CallSite& call : m.calls()) {
    if (call.member) continue;  // `.time()` / `->rand()` members are fine
    if (call.name == "rand" || call.name == "srand")
      add_finding(out, m, call.pos, Check::kDeterminism,
                  "'" + call.name +
                      "()' bypasses the seeded Rng streams; draw from "
                      "util/rng.hpp so paired-seed runs stay bit-identical");
    if (call.name == "time" || call.name == "clock" ||
        call.name == "gettimeofday")
      add_finding(out, m, call.pos, Check::kDeterminism,
                  "'" + call.name +
                      "()' reads the wall clock; simulation code must be a "
                      "pure function of the scenario seed");
  }
  // Address-as-value: reinterpret_cast of a pointer to an integer makes
  // ASLR-dependent addresses observable (digest/order hazards).
  std::size_t pos = 0;
  while ((pos = code.find("reinterpret_cast", pos)) != std::string::npos) {
    const std::size_t open = code.find('<', pos);
    if (open == std::string::npos) break;
    int depth = 0;
    std::size_t close = open;
    for (; close < code.size(); ++close) {
      if (code[close] == '<') ++depth;
      if (code[close] == '>' && --depth == 0) break;
    }
    const std::string target = code.substr(open + 1, close - open - 1);
    for (const char* integral :
         {"uintptr_t", "intptr_t", "size_t", "uint64_t", "int64_t"}) {
      if (contains_word(target, integral)) {
        add_finding(out, m, pos, Check::kDeterminism,
                    "reinterpret_cast of a pointer to '" +
                        std::string(integral) +
                        "' turns an ASLR-dependent address into a value; use "
                        "stable ids, not addresses");
        break;
      }
    }
    pos = close;
  }
}

// ------------------------------------------------------------- digest-purity

struct NamedLine {
  std::string name;
  std::size_t pos = 0;
};

/// Field declarations of `struct Metrics { ... }` (name + offset), skipping
/// member functions.
std::vector<NamedLine> metrics_fields(const SourceModel& m) {
  std::vector<NamedLine> fields;
  const std::string& code = m.code();
  const auto structs = word_positions(code, "Metrics");
  std::size_t body = std::string::npos;
  for (const std::size_t pos : structs) {
    // `struct Metrics {`
    const std::string before = code.substr(pos >= 16 ? pos - 16 : 0, 16);
    if (before.find("struct") == std::string::npos) continue;
    body = code.find('{', pos);
    break;
  }
  if (body == std::string::npos) return fields;
  int depth = 0;
  std::size_t stmt_begin = body + 1;
  for (std::size_t i = body; i < code.size(); ++i) {
    const char c = code[i];
    if (c == '{' || c == '(') ++depth;
    if (c == '}' || c == ')') {
      --depth;
      if (depth == 0 && c == '}') break;  // end of struct
      if (depth == 1 && c == '}') stmt_begin = i + 1;  // nested type done
    }
    if (c == ';' && depth == 1) {
      const std::size_t stmt_start = stmt_begin;
      std::string stmt = code.substr(stmt_start, i - stmt_start);
      stmt_begin = i + 1;
      if (stmt.find('(') != std::string::npos) continue;  // member function
      const std::size_t eq = stmt.find('=');
      if (eq != std::string::npos) stmt = stmt.substr(0, eq);
      const std::size_t bracket = stmt.find('[');
      if (bracket != std::string::npos) stmt = stmt.substr(0, bracket);
      const std::string name = last_ident(stmt);
      if (!name.empty() && name != "public" && name != "private")
        fields.push_back({name, stmt_start + stmt.rfind(name)});
    }
  }
  return fields;
}

/// `d.mix(m.<field>)` occurrences in the digest implementation.
std::vector<NamedLine> mixed_fields(const SourceModel& m) {
  std::vector<NamedLine> mixed;
  const std::string& code = m.code();
  for (const CallSite& call : m.calls()) {
    if (call.name != "mix" || !call.member) continue;
    const std::size_t open = code.find('(', call.pos);
    if (open == std::string::npos) continue;
    const std::size_t close = code.find(')', open);
    if (close == std::string::npos) continue;
    const std::string arg = trimmed(code.substr(open + 1, close - open - 1));
    // Only m.<field> counts; mix(v) forwarding inside the digest class, or
    // derived expressions, are not field coverage.
    const std::size_t dot = arg.find('.');
    if (dot == std::string::npos) continue;
    const std::string obj = trimmed(arg.substr(0, dot));
    const std::string field = arg.substr(dot + 1);
    if (obj.size() <= 2 && !field.empty() &&
        field.find_first_not_of(
            "abcdefghijklmnopqrstuvwxyz"
            "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_") ==
            std::string::npos)
      mixed.push_back({field, call.pos});
  }
  return mixed;
}

/// Names from `// wdc-lint: digest-exclude(a, b, c)` comments, with the
/// comment line they came from.
std::vector<std::pair<std::string, int>> excluded_fields(const SourceModel& m) {
  std::vector<std::pair<std::string, int>> out;
  for (const Comment& c : m.comments()) {
    std::size_t pos = c.text.find("digest-exclude(");
    if (pos == std::string::npos) continue;
    pos += 15;
    const std::size_t close = c.text.find(')', pos);
    if (close == std::string::npos) continue;
    const std::string names = c.text.substr(pos, close - pos);
    std::size_t begin = 0;
    while (begin < names.size()) {
      std::size_t end = names.find_first_of(", ", begin);
      if (end == std::string::npos) end = names.size();
      if (end > begin)
        out.emplace_back(names.substr(begin, end - begin), c.line);
      begin = end + 1;
    }
  }
  return out;
}

void check_digest_purity(
    const std::vector<std::unique_ptr<SourceModel>>& models,
                         std::vector<Finding>& out) {
  const SourceModel* metrics = nullptr;
  const SourceModel* digest = nullptr;
  for (const auto& m : models) {
    if (metrics == nullptr && m->path().ends_with("metrics.hpp") &&
        contains_word(m->code(), "Metrics"))
      metrics = m.get();
    if (digest == nullptr && m->path().ends_with("digest.cpp") &&
        contains_word(m->code(), "metrics_digest"))
      digest = m.get();
  }
  if (metrics == nullptr || digest == nullptr) return;

  const auto fields = metrics_fields(*metrics);
  const auto mixed = mixed_fields(*digest);
  const auto excluded = excluded_fields(*digest);
  std::set<std::string> field_names;
  for (const auto& f : fields) field_names.insert(f.name);
  std::set<std::string> mixed_names;
  for (const auto& f : mixed) mixed_names.insert(f.name);
  std::map<std::string, int> excluded_lines;
  for (const auto& [name, line] : excluded) excluded_lines.emplace(name, line);

  for (const auto& f : fields) {
    const bool is_mixed = mixed_names.count(f.name) > 0;
    const bool is_excluded = excluded_lines.count(f.name) > 0;
    if (!is_mixed && !is_excluded)
      add_finding(out, *metrics, f.pos, Check::kDigestPurity,
                  "Metrics field '" + f.name +
                      "' is neither mixed into metrics_digest() nor listed in "
                      "the '// wdc-lint: digest-exclude(...)' list in " +
                      digest->path() +
                      "; every field must be deliberately one or the other");
    if (is_mixed && is_excluded)
      add_finding(out, *metrics, f.pos, Check::kDigestPurity,
                  "Metrics field '" + f.name +
                      "' is both mixed into metrics_digest() and listed in the "
                      "digest-exclude list; pick exactly one");
  }
  for (const auto& f : mixed)
    if (field_names.count(f.name) == 0)
      add_finding(out, *digest, f.pos, Check::kDigestPurity,
                  "metrics_digest() mixes 'm." + f.name +
                      "', which is not a field of Metrics (stale after a "
                      "rename?)");
  for (const auto& [name, line] : excluded)
    if (field_names.count(name) == 0 &&
        !digest->suppressed(line, to_string(Check::kDigestPurity)))
      out.push_back({digest->path(), line, 1, Check::kDigestPurity,
                     "digest-exclude lists '" + name +
                         "', which is not a field of Metrics (stale after a "
                         "rename?)"});
}

// --------------------------------------------------------- ordered-iteration

/// Direct sink calls: reaching one of these means the function's work is
/// observable in the digest, a CSV, or a trace file.
const char* const kSinkCalls[] = {
    "emit",       "answer",           "mix",
    "metrics_digest",                 "write_csv",
    "enqueue",    "record_hit_answer", "record_miss_answer",
    "record_dropped"};

bool is_sink_call(const std::string& name) {
  for (const char* s : kSinkCalls)
    if (name == s) return true;
  return false;
}

/// Variables declared as std::unordered_map/set in this file.
/// Maps name -> true when the mapped/element type is itself unordered
/// (so `it->second` of a .find() on it is unordered too).
std::map<std::string, bool> unordered_vars(const SourceModel& m) {
  std::map<std::string, bool> vars;
  const std::string& code = m.code();
  for (const char* kw : {"unordered_map", "unordered_set"}) {
    for (const std::size_t pos : word_positions(code, kw)) {
      std::size_t open = pos + std::string(kw).size();
      while (open < code.size() &&
             std::isspace(static_cast<unsigned char>(code[open])) != 0)
        ++open;
      if (open >= code.size() || code[open] != '<') continue;
      int depth = 0;
      std::size_t close = open;
      for (; close < code.size(); ++close) {
        if (code[close] == '<') ++depth;
        if (code[close] == '>' && --depth == 0) break;
      }
      if (close >= code.size()) continue;
      const std::string args = code.substr(open + 1, close - open - 1);
      std::size_t name_begin = close + 1;
      while (name_begin < code.size() &&
             (std::isspace(static_cast<unsigned char>(code[name_begin])) != 0 ||
              code[name_begin] == '&' || code[name_begin] == '*'))
        ++name_begin;
      std::size_t name_end = name_begin;
      while (name_end < code.size() && ident_char(code[name_end])) ++name_end;
      const std::string name = code.substr(name_begin, name_end - name_begin);
      if (!name.empty() &&
          std::isdigit(static_cast<unsigned char>(name[0])) == 0) {
        // Same name declared twice (e.g. a server and a client member):
        // keep the conservative "nested unordered" answer.
        const bool nested = args.find("unordered_") != std::string::npos;
        auto [it, inserted] = vars.emplace(name, nested);
        if (!inserted) it->second = it->second || nested;
      }
    }
  }
  return vars;
}

/// `it = var.find(...)` iterator aliases in this file.
std::map<std::string, std::string> find_aliases(const SourceModel& m) {
  std::map<std::string, std::string> aliases;
  static const std::regex re(R"((\w+)\s*=\s*(\w+)\.find\s*\()");
  const std::string& code = m.code();
  for (auto it = std::sregex_iterator(code.begin(), code.end(), re);
       it != std::sregex_iterator(); ++it)
    aliases[(*it)[1].str()] = (*it)[2].str();
  return aliases;
}

/// Innermost *named* function body containing `pos` (skips lambda bodies).
const Block* named_function_of(const SourceModel& m, std::size_t pos) {
  for (int b = m.innermost_block(pos); b >= 0;
       b = m.blocks()[static_cast<std::size_t>(b)].parent) {
    const Block& blk = m.blocks()[static_cast<std::size_t>(b)];
    if (blk.is_function_body && !blk.name.empty()) return &blk;
  }
  return nullptr;
}

void check_ordered_iteration(
    const std::vector<std::unique_ptr<SourceModel>>& models,
    std::vector<Finding>& out) {
  // Pass 1: names of functions that directly call a sink, across every file.
  std::set<std::string> direct_sinks;
  for (const auto& m : models) {
    for (const CallSite& call : m->calls()) {
      if (!is_sink_call(call.name)) continue;
      if (const Block* fn = named_function_of(*m, call.pos))
        direct_sinks.insert(fn->name);
    }
  }

  // Pass 2: unordered range-fors inside functions that sink directly or call
  // (one level) a function that does.
  for (const auto& m : models) {
    if (m->range_fors().empty()) continue;
    // Merge member declarations from the sibling header (foo.cpp + foo.hpp).
    std::map<std::string, bool> vars = unordered_vars(*m);
    if (m->path().ends_with(".cpp")) {
      const std::string header =
          m->path().substr(0, m->path().size() - 4) + ".hpp";
      for (const auto& other : models)
        if (other->path() == header)
          for (const auto& [name, nested] : unordered_vars(*other))
            vars.emplace(name, nested);
    }
    const auto aliases = find_aliases(*m);
    for (const RangeFor& rf : m->range_fors()) {
      const Block* fn = named_function_of(*m, rf.pos);
      if (fn == nullptr) continue;
      bool feeds_sink = false;
      for (const CallSite& call : m->calls()) {
        if (call.pos <= fn->open || call.pos >= fn->close) continue;
        if (is_sink_call(call.name) || direct_sinks.count(call.name) > 0) {
          feeds_sink = true;
          break;
        }
      }
      if (!feeds_sink) continue;
      const std::string expr = trimmed(rf.expr);
      const std::string base = first_ident(expr);
      std::string container;
      const auto var = vars.find(base);
      if (var != vars.end() && expr.find('(') == std::string::npos) {
        if (expr.find("second") == std::string::npos || var->second)
          container = base;
      } else if (expr.find("->second") != std::string::npos ||
                 expr.find(".second") != std::string::npos) {
        const auto alias = aliases.find(base);
        if (alias != aliases.end()) {
          const auto src = vars.find(alias->second);
          if (src != vars.end() && src->second) container = alias->second;
        }
      }
      if (container.empty()) continue;
      add_finding(out, *m, rf.pos, Check::kOrderedIteration,
                  "range-for over unordered container '" + container +
                      "' inside '" + fn->name +
                      "', which feeds a digest/CSV/trace sink; iteration "
                      "order is implementation-defined, so either iterate a "
                      "sorted view or annotate why the order cannot reach an "
                      "output");
    }
  }
}

// ------------------------------------------------------------------ two-gate

void check_two_gate(const SourceModel& m, std::vector<Finding>& out) {
  for (const CallSite& call : m.calls()) {
    if (!call.member) continue;
    const bool trace_site = call.name == "emit" || call.name == "answer";
    const bool fault_site =
        call.name == "drop_downlink" || call.name == "drop_uplink";
    if (!trace_site && !fault_site) continue;
    if (m.guarded_by(call.pos, "enabled")) continue;
    const char* layer = trace_site ? "trace emit" : "fault hook";
    add_finding(out, m, call.pos, Check::kTwoGate,
                std::string(layer) + " site '" + call.name +
                    "()' is not under its runtime gate: compile-time-gated "
                    "sites must also test enabled() (two-gate discipline, "
                    "as in trace_recorder.hpp / fault_injector.hpp)");
  }
}

// ------------------------------------------------------------ inline-capture

/// Container-ish types whose by-value capture into a 48-byte inline event
/// action is either a per-event allocation or an audit hazard.
const char* kContainerTypeRe =
    "(basic_string|string|wstring|vector|deque|list|forward_list|map|set|"
    "multimap|multiset|unordered_map|unordered_set|unordered_multimap|"
    "unordered_multiset|function|initializer_list)";

bool declared_as_container(const std::string& region, const std::string& name) {
  const std::regex re(std::string("\\b") + kContainerTypeRe +
                      "\\s*(<[^;{}]*>)?\\s*&?\\s*\\b" + name + "\\b");
  return std::regex_search(region, re);
}

/// Split a capture list at top-level commas.
std::vector<std::string> capture_items(const std::string& captures) {
  std::vector<std::string> items;
  int depth = 0;
  std::string cur;
  for (const char c : captures) {
    if (c == '(' || c == '<' || c == '[') ++depth;
    if (c == ')' || c == '>' || c == ']') --depth;
    if (c == ',' && depth == 0) {
      items.push_back(trimmed(cur));
      cur.clear();
    } else {
      cur.push_back(c);
    }
  }
  if (!trimmed(cur).empty()) items.push_back(trimmed(cur));
  return items;
}

void check_capture_list(const SourceModel& m, std::size_t bracket,
                        std::vector<Finding>& out) {
  const std::string& code = m.code();
  int depth = 0;
  std::size_t close = bracket;
  for (; close < code.size(); ++close) {
    if (code[close] == '[') ++depth;
    if (code[close] == ']' && --depth == 0) break;
  }
  if (close >= code.size()) return;
  // The declaration region the captured names resolve in: the enclosing
  // function's signature + body up to the lambda.
  std::size_t region_begin = 0;
  const int fb = m.enclosing_function(m.innermost_block(bracket));
  if (fb >= 0) {
    std::size_t sig = m.blocks()[static_cast<std::size_t>(fb)].open;
    while (sig > 0 && code[sig - 1] != ';' && code[sig - 1] != '}' &&
           code[sig - 1] != '{')
      --sig;
    region_begin = sig;
  }
  const std::string region = code.substr(region_begin, bracket - region_begin);
  for (const std::string& item :
       capture_items(code.substr(bracket + 1, close - bracket - 1))) {
    if (item.empty() || item[0] == '&') continue;  // by-reference is fine
    if (item == "this" || item == "*this") continue;
    if (item == "=") {
      add_finding(out, m, bracket, Check::kInlineCapture,
                  "default by-value capture '[=]' in an event action hides "
                  "what is copied into the 48-byte InlineFunction buffer; "
                  "enumerate the captures so their sizes stay auditable");
      continue;
    }
    std::string name = item;
    const std::size_t eq = item.find('=');
    if (eq != std::string::npos) {
      const std::string init = item.substr(eq + 1);
      if (init.find("move") != std::string::npos) continue;  // moves are cheap
      name = first_ident(init);
    }
    if (name.empty()) continue;
    if (declared_as_container(region, name))
      add_finding(
          out, m, bracket, Check::kInlineCapture,
          "by-value capture of container/std::string '" + name +
              "' in an event action: the copy runs per scheduled event and "
              "allocates outside the 48-byte InlineFunction buffer; capture "
              "by reference to stable state, std::move it, or pass an id");
  }
}

void check_inline_capture(const SourceModel& m, std::vector<Finding>& out) {
  const std::string& code = m.code();
  // Lambdas handed to the kernel: arguments of schedule_at/schedule_in calls.
  for (const CallSite& call : m.calls()) {
    if (call.name != "schedule_at" && call.name != "schedule_in") continue;
    const std::size_t open = code.find('(', call.pos);
    if (open == std::string::npos) continue;
    int depth = 0;
    for (std::size_t i = open; i < code.size(); ++i) {
      if (code[i] == '(') ++depth;
      if (code[i] == ')' && --depth == 0) break;
      if (code[i] == '[' && depth >= 1) {
        // A capture list, not a subscript: `[` after `(`, `,` or whitespace.
        std::size_t prev = i;
        while (prev > 0 && std::isspace(static_cast<unsigned char>(
                               code[prev - 1])) != 0)
          --prev;
        if (prev > 0 && (code[prev - 1] == '(' || code[prev - 1] == ',')) {
          check_capture_list(m, i, out);
          int d = 0;
          while (i < code.size()) {  // skip past the capture list
            if (code[i] == '[') ++d;
            if (code[i] == ']' && --d == 0) break;
            ++i;
          }
        }
      }
    }
  }
  // Explicit InlineFunction / EventAction initializations from a lambda.
  for (const char* type : {"InlineFunction", "EventAction"}) {
    for (const std::size_t pos : word_positions(code, type)) {
      const std::size_t stop = code.find(';', pos);
      const std::size_t eq = code.find('=', pos);
      if (eq == std::string::npos || (stop != std::string::npos && eq > stop))
        continue;
      std::size_t i = eq + 1;
      while (i < code.size() &&
             std::isspace(static_cast<unsigned char>(code[i])) != 0)
        ++i;
      if (i < code.size() && code[i] == '[') check_capture_list(m, i, out);
    }
  }
}

// ------------------------------------------------------------ no-blocking-io

/// Calls whose progress depends on the outside world: socket syscalls,
/// readiness waits, and sleeps. src/net owns every one of them; the model
/// directories must stay schedulable purely by the event kernel, which is
/// what makes the simulator a deterministic twin of the wdc_serve daemon.
const char* const kBlockingCalls[] = {
    "socket",       "connect",      "accept",     "accept4",  "bind",
    "listen",       "recv",         "recvfrom",   "recvmsg",  "send",
    "sendto",       "sendmsg",      "select",     "pselect",  "poll",
    "ppoll",        "epoll_wait",   "epoll_ctl",  "epoll_create",
    "epoll_create1", "nanosleep",   "usleep",     "sleep",    "sleep_for",
    "sleep_until"};

bool is_blocking_name(const std::string& name) {
  for (const char* s : kBlockingCalls)
    if (name == s) return true;
  return false;
}

bool is_sleep_name(const std::string& name) {
  return name == "sleep_for" || name == "sleep_until";
}

/// Token (identifier or single punctuation char) immediately before `pos`.
std::string prev_token(const std::string& code, std::size_t pos) {
  std::size_t i = pos;
  while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1])) != 0)
    --i;
  if (i == 0) return "";
  if (!ident_char(code[i - 1])) return std::string(1, code[i - 1]);
  const std::size_t e = i;
  while (i > 0 && ident_char(code[i - 1])) --i;
  return code.substr(i, e - i);
}

/// For a `qualified` call site (identifier preceded by `::`), true when the
/// qualifier itself is an identifier — `UplinkChannel::send(` (a definition)
/// or `SomeNs::poll(` — as opposed to the global-scope form `::send(`.
bool qualified_by_ident(const std::string& code, std::size_t pos) {
  std::size_t i = pos;
  while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1])) != 0)
    --i;
  if (i < 2 || code[i - 1] != ':' || code[i - 2] != ':') return false;
  i -= 2;
  while (i > 0 && std::isspace(static_cast<unsigned char>(code[i - 1])) != 0)
    --i;
  return i > 0 && ident_char(code[i - 1]);
}

/// Keywords after which an identifier-then-`(` really is a call expression,
/// not a declaration (`return poll(...)` vs `int poll(...)`).
bool call_after_keyword(const std::string& tok) {
  return tok == "return" || tok == "else" || tok == "do" ||
         tok == "co_return" || tok == "co_await" || tok == "throw" ||
         tok == "case";
}

void check_no_blocking_io(const SourceModel& m, std::vector<Finding>& out) {
  const std::string path = "/" + m.path();
  const bool protected_dir =
      in_sim_dirs(m.path()) || path.find("/src/proto/") != std::string::npos;
  if (!protected_dir) return;
  const std::string& code = m.code();
  for (const CallSite& call : m.calls()) {
    if (!is_blocking_name(call.name)) continue;
    // std::this_thread::sleep_for / sleep_until are always a violation: no
    // spelling of them is a model-layer API.
    if (!is_sleep_name(call.name)) {
      // `ch.send(...)` / `mac->poll(...)`: project member APIs, not syscalls.
      if (call.member) continue;
      if (call.qualified) {
        // `UplinkChannel::send(` (a definition) or `SomeNs::poll(` resolve
        // inside the project; only the global-scope form `::send(` is the
        // libc symbol.
        if (qualified_by_ident(code, call.pos)) continue;
      } else {
        // `void send(Message)` — a declaration, not a call: the previous
        // token is a type name.
        const std::string tok = prev_token(code, call.pos);
        if (!tok.empty() && ident_char(tok[0]) && !call_after_keyword(tok))
          continue;
      }
    }
    add_finding(out, m, call.pos, Check::kNoBlockingIo,
                "'" + call.name +
                    "()' is blocking I/O (socket syscall, readiness wait, or "
                    "sleep); src/net is the only I/O boundary — model code "
                    "must stay a pure function of the event kernel so the "
                    "simulator remains wdc_serve's deterministic twin");
  }
}

}  // namespace

std::vector<Finding> run_lint(const std::vector<SourceFile>& files,
                              const Options& opts) {
  std::vector<std::unique_ptr<SourceModel>> models;
  models.reserve(files.size());
  for (const SourceFile& f : files)
    models.push_back(std::make_unique<SourceModel>(f.path, f.text));

  const auto enabled = [&](Check c) {
    if (opts.checks.empty()) return true;
    return std::find(opts.checks.begin(), opts.checks.end(), c) !=
           opts.checks.end();
  };

  std::vector<Finding> out;
  if (enabled(Check::kDigestPurity)) check_digest_purity(models, out);
  if (enabled(Check::kOrderedIteration)) check_ordered_iteration(models, out);
  for (const auto& m : models) {
    if (enabled(Check::kDeterminism)) check_determinism(*m, out);
    if (enabled(Check::kTwoGate)) check_two_gate(*m, out);
    if (enabled(Check::kInlineCapture)) check_inline_capture(*m, out);
    if (enabled(Check::kNoBlockingIo)) check_no_blocking_io(*m, out);
  }
  std::sort(out.begin(), out.end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    if (a.col != b.col) return a.col < b.col;
    return static_cast<int>(a.check) < static_cast<int>(b.check);
  });
  return out;
}

}  // namespace wdc::lint
