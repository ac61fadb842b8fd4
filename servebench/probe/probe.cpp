// servebench_probe: the in-process half of the serving benchmark
// (servebench/run.py drives clpp-serve over its socket; this binary does
// what needs the library itself). Three subcommands:
//
//   servebench_probe snippets SEED COUNT
//       COUNT distinct snippets from codegen::generate_corpus at SEED, one
//       JSON string per line. "Distinct" is by cache::snippet_digest, so no
//       two differ only in whitespace.
//   servebench_probe reference MODEL < snippets
//       For each snippet line, in-process ParallelAdvisor::advise with the
//       server's default options, serialized by shard::response_json: the
//       verdict the server must reproduce.
//   servebench_probe trace MODEL MAX_LEN SPANS_OUT < snippets
//       Replays the snippet sequence through each layer's public entry
//       point, recording one span per layer call, and prints a JSON
//       summary of per-layer times. The spans (with self times) go to
//       SPANS_OUT.
//
// Every stage timed here goes through a public call only; nothing inside
// the library is instrumented.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/depend.h"
#include "analysis/sideeffects.h"
#include "cache/digest.h"
#include "codegen/generator.h"
#include "core/advisor.h"
#include "frontend/parser.h"
#include "s2s/compar.h"
#include "s2s/compiler.h"
#include "shard/frame.h"
#include "shard/worker.h"
#include "support/json.h"
#include "tokenize/representation.h"

namespace {

using namespace clpp;
using Clock = std::chrono::steady_clock;

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

std::vector<std::string> read_snippets() {
  std::vector<std::string> out;
  std::string line;
  while (std::getline(std::cin, line))
    if (!line.empty()) out.push_back(Json::parse(line).as_string());
  return out;
}

int cmd_snippets(std::uint64_t seed, std::size_t count) {
  std::set<std::uint64_t> seen;
  std::size_t printed = 0;
  for (std::size_t size = 2 * count + 64; printed < count; size *= 2) {
    codegen::GeneratorConfig config;
    config.size = size;
    config.seed = seed;
    const corpus::Corpus corpus = codegen::generate_corpus(config);
    // A larger corpus at the same seed is a different draw, so restart the
    // selection rather than appending to it.
    seen.clear();
    std::vector<std::string> chosen;
    for (const corpus::Record& record : corpus.records()) {
      if (chosen.size() == count) break;
      if (seen.insert(cache::snippet_digest(record.code)).second)
        chosen.push_back(record.code);
    }
    if (chosen.size() < count) continue;
    for (const std::string& code : chosen)
      std::printf("%s\n", Json(code).dump().c_str());
    printed = chosen.size();
  }
  return 0;
}

int cmd_reference(const std::string& model) {
  const core::ParallelAdvisor advisor = core::ParallelAdvisor::load(model);
  for (const std::string& code : read_snippets()) {
    serve::ServedAdvice served;
    served.advice = advisor.advise(code);
    std::printf("%s\n", shard::response_json(0, served).dump().c_str());
  }
  return 0;
}

// ------------------------------------------------------------------ trace

struct Span {
  const char* name;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
  int parent;  // index into the span list, -1 for a root
  std::size_t snippet;
};

class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  /// Opens a span; returns its index (or -1 when recording is off).
  int open(const char* name, int parent, std::size_t snippet) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_ns(), 0, parent, snippet});
    return static_cast<int>(spans_.size() - 1);
  }
  void close(int span) {
    if (span >= 0) spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  }
  /// A span whose interval is already known (stage durations reported by
  /// BatchTiming, laid end to end from `begin_ns`).
  void add(const char* name, std::uint64_t begin_ns, std::uint64_t dur_ns,
           int parent, std::size_t snippet) {
    if (enabled_) spans_.push_back({name, begin_ns, begin_ns + dur_ns, parent, snippet});
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// One pass over the snippet sequence, every layer called once per snippet
/// at batch 1.
void replay(const core::ParallelAdvisor& advisor,
            const std::vector<std::string>& codes, Recorder& rec,
            std::vector<core::BatchTiming>* timings) {
  core::AdviseOptions model_only;
  model_only.with_analysis = false;
  model_only.with_compar = false;
  const s2s::ComPar compar;
  std::uint64_t sink = 0;  // keeps results observable
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const std::string& code = codes[i];
    const int root = rec.open("request", -1, i);

    Json request = Json::object();
    request["id"] = static_cast<std::int64_t>(i + 1);
    request["code"] = code;
    shard::Frame frame;
    frame.payload = request.dump();
    int span = rec.open("shard.frame", root, i);
    {
      const std::string wire = shard::encode_frame(frame);
      shard::FrameDecoder decoder;
      decoder.feed(wire.data(), wire.size());
      shard::Frame decoded;
      std::string error;
      decoder.next(&decoded, &error);
      sink += decoded.payload.size();
    }
    rec.close(span);

    span = rec.open("cache.digest", root, i);
    sink += cache::snippet_digest(code);
    rec.close(span);

    span = rec.open("core.encode", root, i);
    sink += tokenize::tokenize(code, tokenize::Representation::kText).size();
    rec.close(span);

    span = rec.open("nn.advise", root, i);
    core::BatchTiming timing;
    const std::uint64_t advise_begin = now_ns();
    sink += advisor.advise_batch({code}, model_only, &timing).front().needs_directive;
    rec.close(span);
    // BatchTiming reports stage durations, not instants: lay the stages end
    // to end from the call's start, in advise_batch's order.
    std::uint64_t at = advise_begin;
    const std::pair<const char*, std::uint64_t> stages[] = {
        {"advise.encode", timing.encode_ns},
        {"nn.directive", timing.directive_ns},
        {"nn.private", timing.private_ns},
        {"nn.reduction", timing.reduction_ns},
        {"nn.schedule", timing.schedule_ns}};
    for (const auto& [name, dur] : stages) {
      if (dur == 0) continue;
      rec.add(name, at, dur, span, i);
      at += dur;
    }
    if (timings != nullptr) timings->push_back(timing);

    span = rec.open("analysis.analyze", root, i);
    try {
      const frontend::NodePtr unit = frontend::parse_snippet(code);
      if (const frontend::Node* loop = s2s::find_target_loop(*unit)) {
        analysis::SideEffectOracle oracle(*unit);
        analysis::AnalyzerOptions options;
        options.assume_unknown_calls_pure = true;
        options.bail_on_struct_access = false;
        options.recognize_minmax_reduction = true;
        sink += analysis::DependenceAnalyzer(oracle, options).analyze(*loop).parallelizable;
      }
    } catch (const ParseError&) {
    }
    rec.close(span);

    span = rec.open("s2s.compar", root, i);
    sink += compar.process_source(code).predicts_directive();
    rec.close(span);

    rec.close(root);
  }
  if (sink == 42) std::fprintf(stderr, " ");
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

int cmd_trace(const std::string& model, std::size_t max_len,
              const std::string& spans_out) {
  const core::ParallelAdvisor advisor = core::ParallelAdvisor::load(model);
  const std::vector<std::string> codes = read_snippets();
  if (codes.empty()) return 2;

  // An untraced warm-up pass, then the traced one.
  Recorder off(false);
  replay(advisor, codes, off, nullptr);
  Recorder rec(true);
  std::vector<core::BatchTiming> b1;
  replay(advisor, codes, rec, &b1);

  // Tracing overhead: the traced-minus-untraced time of the recorder
  // alone, per snippet. (The difference of two whole passes is swamped by
  // the model's run-to-run variation, which is hundreds of times larger.)
  const std::size_t spans_per_snippet = rec.spans().size() / codes.size();
  constexpr int kOverheadReps = 20000;
  Recorder timed(true);
  const std::uint64_t traced_begin = now_ns();
  for (int k = 0; k < kOverheadReps; ++k) {
    const int root = timed.open("request", -1, 0);
    for (std::size_t j = 1; j < spans_per_snippet; ++j)
      timed.close(timed.open("child", root, 0));
    timed.close(root);
  }
  const std::uint64_t traced_ns = now_ns() - traced_begin;
  const std::uint64_t untraced_begin = now_ns();
  for (int k = 0; k < kOverheadReps; ++k) {
    const int root = off.open("request", -1, 0);
    for (std::size_t j = 1; j < spans_per_snippet; ++j)
      off.close(off.open("child", root, 0));
    off.close(root);
  }
  const std::uint64_t untraced_ns = now_ns() - untraced_begin;

  // Batch 32 over the same sequence, model heads only. advise_batch runs
  // each distinct snippet of a batch once and buckets those rows by exact
  // encoded length (<cls> + tokens, truncated to the model's max_len).
  core::AdviseOptions model_only;
  model_only.with_analysis = false;
  model_only.with_compar = false;
  std::uint64_t b32_infer_ns = 0;
  std::size_t b32_rows = 0, buckets = 0;
  for (std::size_t lo = 0; lo < codes.size(); lo += 32) {
    const std::size_t hi = std::min(codes.size(), lo + 32);
    const std::vector<std::string> group(codes.begin() + static_cast<std::ptrdiff_t>(lo),
                                         codes.begin() + static_cast<std::ptrdiff_t>(hi));
    core::BatchTiming timing;
    advisor.advise_batch(group, model_only, &timing);
    b32_infer_ns += timing.infer_ns();
    b32_rows += timing.unique_rows;
    std::set<std::size_t> lengths;
    for (const std::string& code : std::set<std::string>(group.begin(), group.end()))
      lengths.insert(std::min(
          max_len,
          1 + tokenize::tokenize(code, tokenize::Representation::kText).size()));
    buckets += lengths.size();
  }

  // Per-layer durations and self times (duration minus the part covered by
  // child spans; children never overlap here, so a sum suffices).
  const std::vector<Span>& spans = rec.spans();
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  for (const Span& s : spans)
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.begin_ns;
  std::map<std::string, std::vector<double>> dur_us, self_us;
  for (std::size_t k = 0; k < spans.size(); ++k) {
    const double d = static_cast<double>(spans[k].end_ns - spans[k].begin_ns) / 1e3;
    dur_us[spans[k].name].push_back(d);
    self_us[spans[k].name].push_back(d - static_cast<double>(child_ns[k]) / 1e3);
  }

  if (std::FILE* f = std::fopen(spans_out.c_str(), "w")) {
    std::fprintf(f, "{\"spans\":[\n");
    for (std::size_t k = 0; k < spans.size(); ++k)
      std::fprintf(f, "%s{\"name\":\"%s\",\"id\":%zu,\"parent\":%d,\"start_ns\":%llu,"
                      "\"end_ns\":%llu,\"self_ns\":%llu}\n",
                   k == 0 ? "" : ",", spans[k].name, spans[k].snippet, spans[k].parent,
                   static_cast<unsigned long long>(spans[k].begin_ns - spans[0].begin_ns),
                   static_cast<unsigned long long>(spans[k].end_ns - spans[0].begin_ns),
                   static_cast<unsigned long long>(spans[k].end_ns - spans[k].begin_ns -
                                                   child_ns[k]));
    std::fprintf(f, "],\n\"self_us_median\":{");
    bool first = true;
    for (const auto& [name, values] : self_us) {
      std::fprintf(f, "%s\"%s\":%.3f", first ? "" : ",", name.c_str(), median(values));
      first = false;
    }
    std::fprintf(f, "}}\n");
    std::fclose(f);
  }

  const double n = static_cast<double>(codes.size());
  std::uint64_t b1_infer_ns = 0;
  for (const core::BatchTiming& t : b1) b1_infer_ns += t.infer_ns();
  Json out = Json::object();
  out["snippets"] = codes.size();
  Json layers = Json::object();
  for (const auto& [name, values] : dur_us) {
    Json row = Json::object();
    row["calls"] = values.size();
    row["median_us"] = median(values);
    row["self_median_us"] = median(self_us[name]);
    layers[name] = std::move(row);
  }
  out["layers"] = std::move(layers);
  out["batch1_row_us"] = static_cast<double>(b1_infer_ns) / 1e3 / n;
  out["batch32_row_us"] = static_cast<double>(b32_infer_ns) / 1e3 / static_cast<double>(b32_rows);
  out["bucket_rows"] = static_cast<double>(b32_rows) / static_cast<double>(buckets);
  out["trace_overhead_us"] =
      (static_cast<double>(traced_ns) - static_cast<double>(untraced_ns)) / 1e3 / kOverheadReps;
  std::printf("%s\n", out.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.size() == 3 && args[0] == "snippets")
      return cmd_snippets(std::stoull(args[1]), std::stoull(args[2]));
    if (args.size() == 2 && args[0] == "reference") return cmd_reference(args[1]);
    if (args.size() == 4 && args[0] == "trace")
      return cmd_trace(args[1], std::stoull(args[2]), args[3]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench_probe: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr,
               "usage: servebench_probe snippets SEED COUNT | reference MODEL | "
               "trace MODEL MAX_LEN SPANS_OUT\n");
  return 2;
}
