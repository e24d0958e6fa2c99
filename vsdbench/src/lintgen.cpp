#include "lintgen.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace vsdbench {

namespace {

std::string range(int w) { return "[" + std::to_string(w - 1) + ":0]"; }

const char* kOps[] = {"^", "+", "&", "|", "-"};

// A flat module kept as parts, so defect generators can add lines to it.
struct Flat {
  std::string name;
  int width = 8;
  std::vector<std::string> body;
};

// A clean flat module: a chain of `steps` combinational wires, a
// synchronous-reset register and a case-with-default mux.  Every declared
// wire is read and every target is assigned on all paths.
Flat make_flat(const std::string& name, int width, int steps, vsd::Rng& rng) {
  Flat f;
  f.name = name;
  f.width = width;
  std::string prev = "a";
  for (int i = 0; i < steps; ++i) {
    const std::string t = "t" + std::to_string(i);
    const char* op = kOps[rng.next_below(5)];
    const std::string other = rng.next_below(2) == 0 ? "b" : "a";
    f.body.push_back("  wire " + range(width) + " " + t + ";");
    f.body.push_back("  assign " + t + " = " + prev + " " + op + " " + other + ";");
    prev = t;
  }
  f.body.push_back("  assign y = " + prev + ";");
  f.body.push_back("  always @(posedge clk) begin");
  f.body.push_back("    if (rst) q <= {" + std::to_string(width) + "{1'b0}};");
  f.body.push_back("    else q <= " + prev + " ^ b;");
  f.body.push_back("  end");
  f.body.push_back("  always @(*) begin");
  f.body.push_back("    case (sel)");
  f.body.push_back("      2'd0: m = a;");
  f.body.push_back("      2'd1: m = b;");
  f.body.push_back("      default: m = " + prev + ";");
  f.body.push_back("    endcase");
  f.body.push_back("  end");
  return f;
}

std::string render(const Flat& f) {
  const std::string r = range(f.width);
  std::string s = "module " + f.name + " (input clk, input rst, input s, input [1:0] sel, input " +
                  r + " a, input " + r + " b, output " + r + " y, output reg " + r +
                  " q, output reg " + r + " m);\n";
  for (const std::string& line : f.body) s += line + "\n";
  s += "endmodule\n";
  return s;
}

// Clean hierarchy: `levels` of mid modules, each chaining `fanout` leaf
// instances, under one top module.
std::string make_hier(const std::string& name, int width, int levels, int fanout) {
  const std::string r = range(width);
  std::string s;
  std::string below = name + "_leaf";
  s += "module " + below + " (input " + r + " x, input " + r + " z, output " + r +
       " o);\n  assign o = x ^ z;\nendmodule\n";
  for (int l = 0; l < levels; ++l) {
    const std::string mod = name + "_l" + std::to_string(l);
    s += "module " + mod + " (input " + r + " x, input " + r + " z, output " + r + " o);\n";
    std::string prev = "x";
    for (int k = 0; k < fanout; ++k) {
      const std::string n = "n" + std::to_string(k);
      s += "  wire " + r + " " + n + ";\n";
      s += "  " + below + " u" + std::to_string(k) + " (.x(" + prev + "), .z(z), .o(" + n +
           "));\n";
      prev = n;
    }
    s += "  assign o = " + prev + ";\nendmodule\n";
    below = mod;
  }
  s += "module " + name + " (input " + r + " a, input " + r + " b, output " + r + " y);\n";
  s += "  " + below + " top_u (.x(a), .z(b), .o(y));\nendmodule\n";
  return s;
}

// One generator per planted code; each appends lines that make the linter
// (or, for VSD-L200, the elaborated dataflow passes) report that code.
void plant(Flat& f, const std::string& code, int k) {
  const std::string r = range(f.width);
  const std::string id = std::to_string(k);
  if (code == "VSD-L100") {
    f.body.push_back("  wire " + r + " u" + id + ";");
    f.body.push_back("  assign u" + id + " = a ^ ghost" + id + ";");
  } else if (code == "VSD-L110") {
    f.body.push_back("  assign y = b;");
  } else if (code == "VSD-L120") {
    f.body.push_back("  reg " + r + " lt" + id + ";");
    f.body.push_back("  always @(*) begin");
    f.body.push_back("    if (s) lt" + id + " = a;");
    f.body.push_back("  end");
    f.body.push_back("  wire " + r + " lr" + id + ";");
    f.body.push_back("  assign lr" + id + " = lt" + id + " ^ b;");
  } else if (code == "VSD-L152") {
    const int narrow = std::max(1, f.width / 2);
    f.body.push_back("  wire " + range(narrow) + " nr" + id + ";");
    f.body.push_back("  assign nr" + id + " = a;");
  } else if (code == "VSD-L160") {
    f.body.push_back("  wire " + r + " unread" + id + ";");
    f.body.push_back("  assign unread" + id + " = a & b;");
  } else if (code == "VSD-L200") {
    f.body.push_back("  wire lp" + id + ", lq" + id + ";");
    f.body.push_back("  assign lp" + id + " = lq" + id + " & a[0];");
    f.body.push_back("  assign lq" + id + " = lp" + id + " | b[0];");
  } else if (code == "VSD-L001") {
    // Drop the semicolon of the chain's first assignment.
    for (std::string& line : f.body) {
      if (line.rfind("  assign ", 0) == 0) {
        line.pop_back();
        break;
      }
    }
  }
}

}  // namespace

const std::vector<std::string>& planted_codes() {
  static const std::vector<std::string> codes = {"VSD-L001", "VSD-L100", "VSD-L110",
                                                 "VSD-L120", "VSD-L152", "VSD-L160",
                                                 "VSD-L200"};
  return codes;
}

std::string nested_parens_module(const std::string& name, int depth) {
  std::string expr(static_cast<std::size_t>(depth), '(');
  expr += "a";
  expr.append(static_cast<std::size_t>(depth), ')');
  return "module " + name + " (input a, output y);\n  assign y = " + expr + ";\nendmodule\n";
}

std::string nested_if_module(const std::string& name, int depth) {
  std::string s = "module " + name + " (input a, input c, output reg y);\n  always @(*) begin\n    y = a;\n";
  s.reserve(s.size() + static_cast<std::size_t>(depth) * 24);
  for (int i = 0; i < depth; ++i) s += "if (c) begin\n";
  s += "y = ~a;\n";
  for (int i = 0; i < depth; ++i) s += "end\n";
  s += "  end\nendmodule\n";
  return s;
}

std::vector<LintCase> make_lint_corpus(std::uint64_t seed) {
  vsd::Rng rng(seed ^ 0x11A7C0DEull);
  std::vector<LintCase> out;
  const auto width = [&rng] { return 2 + static_cast<int>(rng.next_below(31)); };
  // The size profile is fixed and the seed draws the content (widths,
  // operators, operands, order), so every seed's corpus costs about the same
  // to lint.  Flat modules of varied size: a few long ones among many
  // short ones.
  for (int i = 0; i < 40; ++i) {
    const std::string name = "flat" + std::to_string(i);
    const int steps = i % 8 == 0 ? 40 + 10 * i / 8 : 1 + i % 16;
    const int w = width();
    out.push_back({name, render(make_flat(name, w, steps, rng)), {}});
  }
  for (int i = 0; i < 12; ++i) {
    const std::string name = "hier" + std::to_string(i);
    out.push_back({name, make_hier(name, width(), 1 + i % 5, 1 + i % 4), {}});
  }
  // Deep but legal nesting, well inside what the recursive parser handles.
  const int paren_depths[] = {100, 400, 800, 1500};
  const int if_depths[] = {50, 120, 250, 400};
  for (int i = 0; i < 4; ++i) {
    const std::string p = "deep_paren" + std::to_string(i);
    out.push_back({p, nested_parens_module(p, paren_depths[i]), {}});
    const std::string f = "deep_if" + std::to_string(i);
    out.push_back({f, nested_if_module(f, if_depths[i]), {}});
  }
  // Defect modules: four per code, and a few carrying two codes at once.
  const std::vector<std::string>& codes = planted_codes();
  int k = 0;
  for (const std::string& code : codes) {
    for (int rep = 0; rep < 4; ++rep, ++k) {
      const std::string name = "defect" + std::to_string(k);
      Flat f = make_flat(name, 2 + static_cast<int>(rng.next_below(15)), 1 + k % 12, rng);
      std::vector<std::string> planted = {code};
      plant(f, code, k);
      if (code != "VSD-L001" && rep == 3) {
        // A second, different code in the same module.  Only warning
        // codes pair safely: an error such as VSD-L100 stops elaboration,
        // which would hide a planted VSD-L200.
        static const char* kPairable[] = {"VSD-L120", "VSD-L152", "VSD-L160"};
        std::string extra;
        do {
          extra = kPairable[rng.next_below(3)];
        } while (extra == code);
        plant(f, extra, k + 1000);
        planted.push_back(extra);
      }
      out.push_back({name, render(f), planted});
    }
  }
  // Seeded order, so the linter does not see the kinds in blocks.
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng.next_below(i)]);
  }
  return out;
}

std::vector<LintCase> hostile_inputs() {
  return {{"hostile_parens_20k", nested_parens_module("hostile_parens", 20000), {}},
          {"hostile_if_100k", nested_if_module("hostile_if", 100000), {}}};
}

}  // namespace vsdbench
