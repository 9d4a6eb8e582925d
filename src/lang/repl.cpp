#include "lang/repl.hpp"

#include <sstream>

#include "lang/compile.hpp"
#include "lang/printer.hpp"
#include "trace/timeline.hpp"

namespace sdl::lang {
namespace {

/// Splits ":cmd arg" into cmd and arg (arg may be empty).
std::pair<std::string, std::string> split_command(const std::string& line) {
  const std::size_t space = line.find(' ');
  if (space == std::string::npos) return {line.substr(1), ""};
  std::string arg = line.substr(space + 1);
  const std::size_t begin = arg.find_first_not_of(" \t");
  arg = begin == std::string::npos ? "" : arg.substr(begin);
  return {line.substr(1, space - 1), arg};
}

constexpr const char* kHelp =
    "inputs:\n"
    "  <transaction>        execute, e.g.  exists a : [year, a]! -> [found, a]\n"
    "commands:\n"
    "  :load <file.sdl>     define processes / seed tuples / spawn from a file\n"
    "  :spawn Name(args)    create a process instance\n"
    "  :run                 drive the society to quiescence\n"
    "  :dump                print the dataspace\n"
    "  :checkpoint          print the dataspace as a reloadable init{} block\n"
    "  :stats               runtime counters\n"
    "  :timeline            ASCII timeline of the traced run (events since\n"
    "                       the last :run started)\n"
    "  :help                this text\n"
    "  :quit                leave\n";

}  // namespace

ReplSession::ReplSession(RuntimeOptions options) : runtime_(options) {
  runtime_.arm_log();  // the REPL is a debugging surface
}

std::string ReplSession::eval(const std::string& line) {
  const std::size_t begin = line.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  const std::string trimmed = line.substr(begin);
  if (trimmed[0] == ':') return eval_command(trimmed);
  return eval_transaction(trimmed);
}

std::string ReplSession::eval_command(const std::string& line) {
  const auto [cmd, arg] = split_command(line);
  try {
    if (cmd == "help") return kHelp;
    if (cmd == "quit" || cmd == "q") {
      done_ = true;
      return "bye";
    }
    if (cmd == "load") {
      if (arg.empty()) return "error: :load needs a path";
      load_path(runtime_, arg);
      return "loaded " + arg;
    }
    if (cmd == "spawn") {
      // Reuse the program grammar: "spawn <arg>" is a top-level spawn.
      Program p = parse_program("spawn " + arg);
      if (p.spawns.size() != 1) return "error: expected Name(args...)";
      const ProcessId pid =
          runtime_.spawn(p.spawns[0].first, std::move(p.spawns[0].second));
      return "spawned " + p.spawns[0].first + "#" + std::to_string(pid);
    }
    if (cmd == "run") {
      // Each run starts a fresh log: :timeline shows the traced run, and
      // the log's memory stays bounded by one run.
      runtime_.arm_log();
      const RunReport report = runtime_.run();
      std::ostringstream os;
      os << "quiescent: " << report.completed << " completed, "
         << report.still_parked << " parked";
      for (const std::string& p : report.parked) os << "\n  " << p;
      for (const std::string& e : report.errors) os << "\n  error: " << e;
      return os.str();
    }
    if (cmd == "dump") {
      std::ostringstream os;
      for (const Record& r : runtime_.space().snapshot()) {
        os << r.tuple.to_string() << "   " << r.id.to_string() << "\n";
      }
      os << "(" << runtime_.space().size() << " tuples)";
      return os.str();
    }
    if (cmd == "checkpoint") return checkpoint_dataspace(runtime_.space());
    if (cmd == "stats") return runtime_.stats().to_string();
    if (cmd == "timeline") {
      std::ostringstream os;
      render_ascii(summarize(runtime_.event_log()->events()), os);
      return os.str();
    }
    return "error: unknown command :" + cmd + " (:help lists commands)";
  } catch (const std::exception& e) {
    return std::string("error: ") + e.what();
  }
}

std::string ReplSession::eval_transaction(const std::string& line) {
  try {
    Transaction txn = parse_transaction(line, scope_);
    if (txn.type == TxnType::Consensus) {
      return "error: consensus transactions need a process society — put "
             "them in a process and :load it";
    }
    // The REPL must not hang: delayed transactions are evaluated once.
    const bool was_delayed = txn.type == TxnType::Delayed;
    txn.type = TxnType::Immediate;
    txn.resolve(symbols_);
    env_.resize(static_cast<std::size_t>(symbols_.size()));

    const std::size_t before = runtime_.space().size();
    const TxnResult result = runtime_.execute(txn, env_);
    if (!result.success) {
      return was_delayed
                 ? "not enabled (the REPL evaluates '=>'-transactions once "
                   "instead of blocking)"
                 : "failed";
    }

    std::ostringstream os;
    os << "committed";
    // Show quantified bindings (Exists keeps them in the environment).
    if (txn.query.quantifier == Quantifier::Exists) {
      for (const std::string& v : txn.query.local_vars) {
        const Value& bound =
            env_[static_cast<std::size_t>(*symbols_.lookup(v))];
        if (!bound.is_nil()) os << "  " << v << " = " << bound.to_string();
      }
    } else if (!result.matches.empty()) {
      os << "  (" << result.matches.size() << " matches)";
    }
    for (const LetAction& let : txn.lets) {
      os << "  " << let.name << " = "
         << env_[static_cast<std::size_t>(let.slot)].to_string();
    }
    const std::size_t after = runtime_.space().size();
    if (after != before) {
      const auto delta = static_cast<std::int64_t>(after) -
                         static_cast<std::int64_t>(before);
      os << "  (" << (delta >= 0 ? "+" : "") << delta << " tuples)";
    }
    return os.str();
  } catch (const ParseError& e) {
    return std::string("parse error: ") + e.what();
  } catch (const std::exception& e) {
    return std::string("error: ") + e.what();
  }
}

}  // namespace sdl::lang
