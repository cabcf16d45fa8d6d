#include "lint/flow.h"

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace kondo {
namespace lint {
namespace {

constexpr size_t kNpos = static_cast<size_t>(-1);

bool IsIdent(const Token& t) { return t.kind == TokenKind::kIdentifier; }

bool IsIdent(const Token& t, const char* text) {
  return t.kind == TokenKind::kIdentifier && t.text == text;
}

bool IsPunct(const Token& t, const char* text) {
  return t.kind == TokenKind::kPunct && t.text == text;
}

/// Statement keywords that can precede a '(' without being a function name.
bool IsControlKeyword(const std::string& text) {
  static const std::set<std::string>* const kSet = new std::set<std::string>{
      "if",       "for",      "while",    "switch",   "catch",
      "return",   "sizeof",   "alignof",  "decltype", "new",
      "delete",   "else",     "do",       "static_assert",
      "noexcept", "alignas",  "throw",    "case",     "default",
      "co_await", "co_return", "co_yield", "defined",  "assert",
      "typedef",  "using",    "goto"};
  return kSet->count(text) != 0;
}

/// Index of the ')' matching the '(' at `open`, or kNpos. Tracks only
/// parentheses — string/char parens are non-punct tokens, so they never
/// unbalance the count.
size_t MatchParen(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t k = open; k < toks.size(); ++k) {
    if (IsPunct(toks[k], "(")) {
      ++depth;
    } else if (IsPunct(toks[k], ")")) {
      if (--depth == 0) {
        return k;
      }
    }
  }
  return kNpos;
}

/// Index of the '}' matching the '{' at `open`, or kNpos.
size_t MatchBrace(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t k = open; k < toks.size(); ++k) {
    if (IsPunct(toks[k], "{")) {
      ++depth;
    } else if (IsPunct(toks[k], "}")) {
      if (--depth == 0) {
        return k;
      }
    }
  }
  return kNpos;
}

/// Index just past a balanced '<...>' opening at `open`, or kNpos when the
/// angle run is unbalanced within `limit` tokens (a less-than expression,
/// not template arguments).
size_t SkipAngles(const std::vector<Token>& toks, size_t open, size_t limit) {
  int depth = 0;
  for (size_t k = open; k < toks.size() && k < open + limit; ++k) {
    if (IsPunct(toks[k], "<")) {
      ++depth;
    } else if (IsPunct(toks[k], ">")) {
      if (--depth == 0) {
        return k + 1;
      }
    } else if (IsPunct(toks[k], ";") || IsPunct(toks[k], "{")) {
      return kNpos;
    }
  }
  return kNpos;
}

/// A member/qualifier chain starting at an identifier: `a.b->c` or
/// `std::min`. `comps` holds the identifiers, `flat` the chain as spelled,
/// `end` the index just past the chain.
struct Chain {
  std::vector<std::string> comps;
  std::string flat;
  size_t end = 0;
  int line = 0;
};

Chain ReadChain(const std::vector<Token>& toks, size_t i) {
  Chain chain;
  chain.line = toks[i].line;
  chain.comps.push_back(toks[i].text);
  chain.flat = toks[i].text;
  size_t k = i + 1;
  while (k + 1 < toks.size() &&
         (IsPunct(toks[k], ".") || IsPunct(toks[k], "->") ||
          IsPunct(toks[k], "::")) &&
         IsIdent(toks[k + 1])) {
    chain.flat += toks[k].text + toks[k + 1].text;
    chain.comps.push_back(toks[k + 1].text);
    k += 2;
  }
  chain.end = k;
  return chain;
}

/// The chain minus its final component — the receiver of `a.b.resize`.
std::string ChainReceiver(const std::vector<Token>& toks, size_t i,
                          const Chain& chain) {
  if (chain.comps.size() < 2) {
    return chain.flat;
  }
  std::string flat = toks[i].text;
  size_t k = i + 1;
  for (size_t c = 1; c + 1 < chain.comps.size(); ++c, k += 2) {
    flat += toks[k].text + toks[k + 1].text;
  }
  return flat;
}

/// Flattens tokens [begin, end) into expression text, dropping leading
/// address-of / dereference operators so `&mu`, `*mu`, and `mu` name the
/// same lock.
std::string FlattenExpr(const std::vector<Token>& toks, size_t begin,
                        size_t end) {
  size_t b = begin;
  while (b < end && (IsPunct(toks[b], "&") || IsPunct(toks[b], "*"))) {
    ++b;
  }
  std::string out;
  for (size_t k = b; k < end; ++k) {
    out += toks[k].text;
  }
  return out;
}

bool IsGuardType(const std::string& text) {
  return text == "MutexLock" || text == "lock_guard" ||
         text == "unique_lock" || text == "scoped_lock" ||
         text == "shared_lock";
}

bool IsCursorReadName(const std::string& text) {
  return text == "ReadU16" || text == "ReadU32" || text == "ReadU64" ||
         text == "ReadI64" || text == "ReadVarint";
}

std::string Qualify(const std::string& scope, const std::string& expr) {
  return scope.empty() ? expr : scope + "::" + expr;
}

}  // namespace

std::vector<FlowFunction> SegmentFunctions(const LexedFile& lexed) {
  const std::vector<Token>& toks = lexed.tokens;
  std::vector<FlowFunction> out;

  // Enclosing class/struct definitions, by brace depth, so unqualified
  // inline method definitions inherit their class as identity scope.
  struct ClassFrame {
    std::string name;
    int depth = 0;  // Brace depth *inside* the class body.
  };
  std::vector<ClassFrame> classes;
  int depth = 0;

  for (size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (IsPunct(t, "{")) {
      ++depth;
      continue;
    }
    if (IsPunct(t, "}")) {
      --depth;
      while (!classes.empty() && classes.back().depth > depth) {
        classes.pop_back();
      }
      continue;
    }
    if (!IsIdent(t)) {
      continue;
    }

    // Class/struct definition header: remember the name so its inline
    // methods get the right scope. `enum class` and forward declarations
    // never open a frame.
    if ((t.text == "class" || t.text == "struct") &&
        !(i > 0 && IsIdent(toks[i - 1], "enum"))) {
      size_t j = i + 1;
      std::string name;
      std::string penultimate;
      while (j < toks.size()) {
        const Token& u = toks[j];
        if (IsIdent(u)) {
          if (j + 1 < toks.size() && IsPunct(toks[j + 1], "(")) {
            // Attribute macro such as KONDO_CAPABILITY("mutex").
            const size_t close = MatchParen(toks, j + 1);
            if (close == kNpos) {
              break;
            }
            j = close + 1;
            continue;
          }
          penultimate = name;
          name = u.text;
          ++j;
          continue;
        }
        if (IsPunct(u, ":")) {  // Base clause: scan ahead for the brace.
          while (j < toks.size() && !IsPunct(toks[j], "{") &&
                 !IsPunct(toks[j], ";")) {
            ++j;
          }
          continue;
        }
        break;
      }
      if (j < toks.size() && IsPunct(toks[j], "{") && !name.empty()) {
        if (name == "final" && !penultimate.empty()) {
          name = penultimate;
        }
        classes.push_back(ClassFrame{name, depth + 1});
      }
      continue;
    }

    // Function-definition candidate: identifier immediately followed by a
    // parameter list.
    if (i + 1 >= toks.size() || !IsPunct(toks[i + 1], "(") ||
        IsControlKeyword(t.text)) {
      continue;
    }
    const size_t params_close = MatchParen(toks, i + 1);
    if (params_close == kNpos) {
      continue;
    }

    // Trailing qualifiers: const/noexcept/override/final and KONDO_*
    // annotation macros (with optional argument lists), then an optional
    // trailing return type, then either the body brace or a constructor
    // member-initialiser list.
    size_t j = params_close + 1;
    bool bad = false;
    while (j < toks.size() && !bad) {
      const Token& u = toks[j];
      if (IsIdent(u) &&
          (u.text == "const" || u.text == "noexcept" ||
           u.text == "override" || u.text == "final" ||
           u.text == "mutable" ||
           u.text.compare(0, 6, "KONDO_") == 0)) {
        ++j;
        if (j < toks.size() && IsPunct(toks[j], "(")) {
          const size_t close = MatchParen(toks, j);
          if (close == kNpos) {
            bad = true;
            break;
          }
          j = close + 1;
        }
        continue;
      }
      if (IsPunct(u, "->")) {  // Trailing return type.
        ++j;
        while (j < toks.size() && !IsPunct(toks[j], "{") &&
               !IsPunct(toks[j], ";") && !IsPunct(toks[j], "=") &&
               !IsPunct(toks[j], ",") && !IsPunct(toks[j], ")")) {
          ++j;
        }
        break;
      }
      break;
    }
    if (bad || j >= toks.size()) {
      continue;
    }

    // Constructor member-initialiser list.
    if (IsPunct(toks[j], ":")) {
      ++j;
      bool init_ok = false;
      while (j < toks.size()) {
        if (!IsIdent(toks[j])) {
          break;
        }
        // Member or (possibly qualified, possibly templated) base name.
        while (j + 1 < toks.size() && IsPunct(toks[j + 1], "::") &&
               j + 2 < toks.size() && IsIdent(toks[j + 2])) {
          j += 2;
        }
        ++j;
        if (j < toks.size() && IsPunct(toks[j], "<")) {
          const size_t past = SkipAngles(toks, j, 64);
          if (past == kNpos) {
            break;
          }
          j = past;
        }
        if (j < toks.size() && IsPunct(toks[j], "(")) {
          const size_t close = MatchParen(toks, j);
          if (close == kNpos) {
            break;
          }
          j = close + 1;
        } else if (j < toks.size() && IsPunct(toks[j], "{")) {
          const size_t close = MatchBrace(toks, j);
          if (close == kNpos) {
            break;
          }
          j = close + 1;
        } else {
          break;
        }
        if (j < toks.size() && IsPunct(toks[j], ",")) {
          ++j;
          continue;
        }
        init_ok = j < toks.size() && IsPunct(toks[j], "{");
        break;
      }
      if (!init_ok) {
        continue;
      }
    }

    if (j >= toks.size() || !IsPunct(toks[j], "{")) {
      continue;
    }
    const size_t body_close = MatchBrace(toks, j);
    if (body_close == kNpos) {
      continue;
    }

    // Walk the name back through `Qualifier::` chains (and a destructor
    // tilde) to recover the spelled name and its identity scope.
    std::vector<std::string> parts{t.text};
    size_t k = i;
    if (k >= 1 && IsPunct(toks[k - 1], "~")) {
      parts[0] = "~" + parts[0];
      --k;
    }
    while (k >= 2 && IsPunct(toks[k - 1], "::") && IsIdent(toks[k - 2])) {
      parts.insert(parts.begin(), toks[k - 2].text);
      k -= 2;
    }

    FlowFunction fn;
    fn.name = parts[0];
    for (size_t p = 1; p < parts.size(); ++p) {
      fn.name += "::" + parts[p];
    }
    if (parts.size() >= 2) {
      fn.scope = parts[0];
      for (size_t p = 1; p + 1 < parts.size(); ++p) {
        fn.scope += "::" + parts[p];
      }
    } else if (!classes.empty()) {
      fn.scope = classes.back().name;
    } else {
      fn.scope = fn.name;  // Free function: locals never leak the scope.
    }
    fn.line = t.line;
    fn.body_begin = j + 1;
    fn.body_end = body_close;
    out.push_back(fn);

    // Resume just inside the body: depth/class tracking stays consistent
    // and inline definitions of locally declared classes are still seen.
    i = j;
    ++depth;
  }
  return out;
}

LockTrace TraceLocks(const LexedFile& lexed, const FlowFunction& fn) {
  const std::vector<Token>& toks = lexed.tokens;
  LockTrace trace;

  struct Held {
    std::string id;
    int scope_depth = 0;
    bool raii = false;
  };
  std::vector<Held> held;
  int depth = 1;  // The body's own brace is open.

  auto held_ids = [&held]() {
    std::vector<std::string> ids;
    ids.reserve(held.size());
    for (const Held& h : held) {
      ids.push_back(h.id);
    }
    return ids;
  };

  for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Token& t = toks[i];
    if (IsPunct(t, "{")) {
      ++depth;
      continue;
    }
    if (IsPunct(t, "}")) {
      for (size_t h = held.size(); h-- > 0;) {
        if (held[h].raii && held[h].scope_depth == depth) {
          held.erase(held.begin() + static_cast<ptrdiff_t>(h));
        }
      }
      --depth;
      continue;
    }
    if (!IsIdent(t)) {
      continue;
    }

    // RAII guard declaration: `MutexLock lock(expr);` (std guard types with
    // template arguments are accepted for completeness).
    if (IsGuardType(t.text)) {
      size_t j = i + 1;
      if (j < toks.size() && IsPunct(toks[j], "<")) {
        const size_t past = SkipAngles(toks, j, 64);
        if (past == kNpos) {
          continue;
        }
        j = past;
      }
      if (j + 1 < toks.size() && IsIdent(toks[j]) &&
          IsPunct(toks[j + 1], "(")) {
        const size_t close = MatchParen(toks, j + 1);
        if (close != kNpos && close > j + 2) {
          LockAcquisition acq;
          acq.lock_expr = FlattenExpr(toks, j + 2, close);
          acq.lock = Qualify(fn.scope, acq.lock_expr);
          acq.line = toks[j].line;
          acq.held = held_ids();
          trace.acquisitions.push_back(acq);
          held.push_back(Held{acq.lock, depth, /*raii=*/true});
          i = close;
        }
      }
      continue;
    }

    // Explicit `expr.Lock()` / `expr.Unlock()`, and `cv.Wait(mu)`.
    const bool member_call =
        i >= 1 && (IsPunct(toks[i - 1], ".") || IsPunct(toks[i - 1], "->")) &&
        i + 1 < toks.size() && IsPunct(toks[i + 1], "(");
    if (!member_call) {
      continue;
    }
    if (t.text == "Lock" || t.text == "Unlock") {
      // Receiver: the member chain ending just before the '.'/'->'.
      size_t k = i - 1;
      if (k < 1 || !IsIdent(toks[k - 1])) {
        continue;
      }
      size_t start = k - 1;
      while (start >= 2 &&
             (IsPunct(toks[start - 1], ".") || IsPunct(toks[start - 1], "->") ||
              IsPunct(toks[start - 1], "::")) &&
             IsIdent(toks[start - 2])) {
        start -= 2;
      }
      const std::string expr = FlattenExpr(toks, start, i - 1);
      const std::string id = Qualify(fn.scope, expr);
      if (t.text == "Lock") {
        LockAcquisition acq;
        acq.lock_expr = expr;
        acq.lock = id;
        acq.line = t.line;
        acq.held = held_ids();
        trace.acquisitions.push_back(acq);
        held.push_back(Held{id, depth, /*raii=*/false});
      } else {
        for (size_t h = held.size(); h-- > 0;) {
          if (held[h].id == id) {
            held.erase(held.begin() + static_cast<ptrdiff_t>(h));
            break;
          }
        }
      }
      continue;
    }
    if (t.text == "Wait") {
      const size_t close = MatchParen(toks, i + 1);
      if (close == kNpos || close == i + 2) {
        continue;  // Unbalanced, or no mutex argument (not a CondVar wait).
      }
      WaitSite site;
      site.wait_lock_expr = FlattenExpr(toks, i + 2, close);
      site.wait_lock = Qualify(fn.scope, site.wait_lock_expr);
      site.line = t.line;
      site.held = held_ids();
      trace.waits.push_back(site);
      i = close;
      continue;
    }
  }
  return trace;
}

std::vector<TaintedUse> TraceWireTaint(const LexedFile& lexed,
                                       const FlowFunction& fn) {
  const std::vector<Token>& toks = lexed.tokens;
  std::vector<TaintedUse> uses;

  struct Taint {
    std::string source;
    int line = 0;
  };
  std::map<std::string, Taint> tainted;

  // True when any chain inside [begin, end) is currently tainted; the
  // first such chain's name and taint are reported through the out-params.
  auto scan_for_taint = [&](size_t begin, size_t end, std::string* name,
                            Taint* taint) {
    for (size_t k = begin; k < end; ++k) {
      if (!IsIdent(toks[k])) {
        continue;
      }
      Chain c = ReadChain(toks, k);
      auto it = tainted.find(c.flat);
      if (it != tainted.end()) {
        *name = c.flat;
        *taint = it->second;
        return true;
      }
      k = c.end - 1;
    }
    return false;
  };

  // End of the current statement: the ';' at parenthesis depth zero.
  auto statement_end = [&](size_t begin) {
    int pd = 0;
    for (size_t k = begin; k < fn.body_end; ++k) {
      if (IsPunct(toks[k], "(") || IsPunct(toks[k], "[")) {
        ++pd;
      } else if (IsPunct(toks[k], ")") || IsPunct(toks[k], "]")) {
        --pd;
      } else if (pd <= 0 && (IsPunct(toks[k], ";") || IsPunct(toks[k], "{") ||
                             IsPunct(toks[k], "}"))) {
        return k;
      }
    }
    return fn.body_end;
  };

  for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
    const Token& t = toks[i];

    // `new T[expr]` with a tainted extent.
    if (IsIdent(t, "new")) {
      size_t j = i + 1;
      while (j < fn.body_end &&
             (IsIdent(toks[j]) || IsPunct(toks[j], "::") ||
              IsPunct(toks[j], "*") || IsPunct(toks[j], "<") ||
              IsPunct(toks[j], ">") || toks[j].kind == TokenKind::kNumber ||
              IsPunct(toks[j], ","))) {
        ++j;
      }
      if (j < fn.body_end && IsPunct(toks[j], "[")) {
        size_t close = j;
        int bd = 0;
        while (close < fn.body_end) {
          if (IsPunct(toks[close], "[")) {
            ++bd;
          } else if (IsPunct(toks[close], "]")) {
            if (--bd == 0) {
              break;
            }
          }
          ++close;
        }
        std::string name;
        Taint taint;
        if (close < fn.body_end && scan_for_taint(j + 1, close, &name, &taint)) {
          TaintedUse use;
          use.variable = name;
          use.sink = "new[]";
          use.sink_expr = FlattenExpr(toks, i + 1, j);
          use.line = t.line;
          use.source = taint.source;
          use.source_line = taint.line;
          uses.push_back(use);
        }
        if (close < fn.body_end) {
          i = close;  // The extent is new[]'s, not a subscript's.
        }
      }
      continue;
    }

    // Subscript with a tainted index: `recv[expr]` (never a lambda capture
    // list or attribute — those are not preceded by a value token).
    if (IsPunct(t, "[") && i >= 1 &&
        (IsIdent(toks[i - 1]) || IsPunct(toks[i - 1], ")") ||
         IsPunct(toks[i - 1], "]"))) {
      size_t close = i;
      int bd = 0;
      while (close < fn.body_end) {
        if (IsPunct(toks[close], "[")) {
          ++bd;
        } else if (IsPunct(toks[close], "]")) {
          if (--bd == 0) {
            break;
          }
        }
        ++close;
      }
      std::string name;
      Taint taint;
      if (close < fn.body_end && scan_for_taint(i + 1, close, &name, &taint)) {
        TaintedUse use;
        use.variable = name;
        use.sink = "index";
        use.sink_expr = IsIdent(toks[i - 1]) ? toks[i - 1].text : "";
        use.line = t.line;
        use.source = taint.source;
        use.source_line = taint.line;
        uses.push_back(use);
        i = close;
      }
      continue;
    }

    if (!IsIdent(t)) {
      continue;
    }

    Chain chain = ReadChain(toks, i);
    const std::string& last = chain.comps.back();
    const bool call =
        chain.end < fn.body_end && IsPunct(toks[chain.end], "(");

    if (call && IsCursorReadName(last)) {
      // Cursor length read: taint the out-argument.
      const size_t close = MatchParen(toks, chain.end);
      if (close != kNpos) {
        for (size_t k = chain.end + 1; k < close; ++k) {
          if (IsIdent(toks[k])) {
            Chain arg = ReadChain(toks, k);
            tainted[arg.flat] = Taint{last, t.line};
            break;
          }
        }
        i = close;
      }
      continue;
    }

    if (call && (last == "resize" || last == "reserve") &&
        chain.comps.size() >= 2) {
      const size_t close = MatchParen(toks, chain.end);
      std::string name;
      Taint taint;
      if (close != kNpos &&
          scan_for_taint(chain.end + 1, close, &name, &taint)) {
        TaintedUse use;
        use.variable = name;
        use.sink = last;
        use.sink_expr = ChainReceiver(toks, i, chain);
        use.line = t.line;
        use.source = taint.source;
        use.source_line = taint.line;
        uses.push_back(use);
        i = close;
        continue;
      }
      i = chain.end - 1;
      continue;
    }

    const Token* nxt = chain.end < fn.body_end ? &toks[chain.end] : nullptr;
    const Token* prv = i >= fn.body_begin + 1 ? &toks[i - 1] : nullptr;
    const bool prv_is_cmp =
        prv != nullptr &&
        (IsPunct(*prv, "<") || IsPunct(*prv, ">") ||
         (IsPunct(*prv, "=") && i >= fn.body_begin + 2 &&
          (IsPunct(toks[i - 2], "<") || IsPunct(toks[i - 2], ">") ||
           IsPunct(toks[i - 2], "!") || IsPunct(toks[i - 2], "="))));
    const bool nxt_is_cmp =
        nxt != nullptr &&
        (IsPunct(*nxt, "<") || IsPunct(*nxt, ">") ||
         (IsPunct(*nxt, "!") && chain.end + 1 < fn.body_end &&
          IsPunct(toks[chain.end + 1], "=")) ||
         (IsPunct(*nxt, "=") && chain.end + 1 < fn.body_end &&
          IsPunct(toks[chain.end + 1], "=")));
    const bool nxt_is_assign =
        nxt != nullptr && IsPunct(*nxt, "=") && !nxt_is_cmp && !prv_is_cmp &&
        !(prv != nullptr && IsPunct(*prv, "!"));

    auto it = tainted.find(chain.flat);
    if (it != tainted.end() && (nxt_is_cmp || prv_is_cmp)) {
      // A bounds comparison sanitises the value from here on.
      tainted.erase(it);
      i = chain.end - 1;
      continue;
    }
    if (nxt_is_assign) {
      // `chain = rhs;` — taint follows the right-hand side.
      const size_t end = statement_end(chain.end + 1);
      std::string name;
      Taint taint;
      if (scan_for_taint(chain.end + 1, end, &name, &taint)) {
        tainted[chain.flat] = taint;
      } else {
        tainted.erase(chain.flat);
      }
      i = chain.end;  // Re-scan the RHS for comparisons and sinks.
      continue;
    }
    i = chain.end - 1;
  }
  return uses;
}

}  // namespace lint
}  // namespace kondo
