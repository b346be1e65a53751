#include "harness/scenario_file.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "storage/wal.h"

namespace caesar::harness {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser (no external dependencies).
// Scenario files are small, so simplicity beats speed; objects preserve key
// order and allow duplicate detection.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  JsonParser(std::string_view text, std::string_view origin)
      : text_(text), origin_(origin) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after the JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream os;
    os << "scenario file " << origin_ << ":" << line << ":" << col << ": "
       << what;
    throw std::invalid_argument(os.str());
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string_value();
      case 't':
      case 'f':
        return boolean();
      case 'n':
        return null();
      default:
        return number();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("object keys must be strings");
      std::string key = parse_string();
      if (v.find(key) != nullptr) fail("duplicate key \"" + key + "\"");
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          default:
            fail(std::string("unsupported escape '\\") + e + "'");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    v.string = parse_string();
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("expected 'true' or 'false'");
    }
    return v;
  }

  JsonValue null() {
    JsonValue v;
    if (text_.compare(pos_, 4, "null") != 0) fail("expected 'null'");
    pos_ += 4;
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a JSON value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    try {
      v.number = std::stod(std::string(text_.substr(start, pos_ - start)));
    } catch (const std::exception&) {
      pos_ = start;
      fail("malformed number");
    }
    return v;
  }

  std::string_view text_;
  std::string_view origin_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// JSON -> Scenario translation. Every accessor names the field it is reading
// so type and range errors point at the exact offending entry.
// ---------------------------------------------------------------------------

class ScenarioTranslator {
 public:
  explicit ScenarioTranslator(std::string_view origin) : origin_(origin) {}

  Scenario translate(const JsonValue& root) {
    if (root.kind != JsonValue::Kind::kObject) {
      fail("", "top level must be a JSON object");
    }
    Scenario s;
    // "base" first regardless of key order: later fields override it.
    if (const JsonValue* base = root.find("base")) {
      s = make_scenario(as_string(*base, "base"));
    }
    for (const auto& [key, v] : root.object) {
      apply_field(s, key, v);
    }
    return ScenarioBuilder(std::move(s)).build();
  }

 private:
  [[noreturn]] void fail(const std::string& field,
                         const std::string& what) const {
    std::ostringstream os;
    os << "scenario file " << origin_ << ": ";
    if (!field.empty()) os << "field \"" << field << "\": ";
    os << what;
    throw std::invalid_argument(os.str());
  }

  double as_number(const JsonValue& v, const std::string& field) const {
    if (v.kind != JsonValue::Kind::kNumber) fail(field, "expected a number");
    return v.number;
  }

  /// An integer that fits the field's type T: one that would wrap or
  /// truncate is an error naming the field, never a different number.
  template <typename T>
  T as_int(const JsonValue& v, const std::string& field) const {
    const double d = as_number(v, field);
    if (d != std::floor(d)) fail(field, "expected an integer");
    if (std::is_unsigned_v<T> && d < 0) {
      fail(field, "expected a non-negative integer");
    }
    // Both bounds are exact doubles (max + 1 rounds to a power of two), so
    // no value outside T's range reaches the cast.
    if (d < static_cast<double>(std::numeric_limits<T>::min()) ||
        d >= static_cast<double>(std::numeric_limits<T>::max()) + 1.0) {
      fail(field, "integer out of range");
    }
    return static_cast<T>(d);
  }

  bool as_bool(const JsonValue& v, const std::string& field) const {
    if (v.kind != JsonValue::Kind::kBool) fail(field, "expected true or false");
    return v.boolean;
  }

  const std::string& as_string(const JsonValue& v,
                               const std::string& field) const {
    if (v.kind != JsonValue::Kind::kString) fail(field, "expected a string");
    return v.string;
  }

  /// A duration in `unit`s, as whole microseconds that fit a Time.
  Time as_duration(const JsonValue& v, const std::string& field,
                   Time unit) const {
    const double us = as_number(v, field) * static_cast<double>(unit);
    constexpr double kLimit = 9223372036854775808.0;  // 2^63, exact
    if (!(us > -kLimit && us < kLimit)) fail(field, "duration out of range");
    return static_cast<Time>(std::llround(us));
  }
  Time as_seconds(const JsonValue& v, const std::string& field) const {
    return as_duration(v, field, kSec);
  }
  Time as_millis(const JsonValue& v, const std::string& field) const {
    return as_duration(v, field, kMs);
  }

  ProtocolKind as_protocol(const JsonValue& v, const std::string& field) const {
    const std::string& name = as_string(v, field);
    if (const auto kind = parse_protocol(name)) return *kind;
    fail(field, "unknown protocol \"" + name +
                    "\" (expected caesar|epaxos|m2paxos|mencius|multipaxos|"
                    "clockrsm)");
  }

  void apply_shards(Scenario& s, const JsonValue& v) const {
    if (v.kind != JsonValue::Kind::kObject) fail("shards", "expected an object");
    for (const auto& [key, f] : v.object) {
      const std::string field = "shards." + key;
      if (key == "count") {
        s.shards.count = as_int<std::uint32_t>(f, field);
      } else if (key == "partition") {
        const std::string& p = as_string(f, field);
        if (p == "hash") {
          s.shards.partition = shard::Partition::kHash;
        } else if (p == "range") {
          s.shards.partition = shard::Partition::kRange;
        } else {
          fail(field, "expected \"hash\" or \"range\", got \"" + p + "\"");
        }
      } else if (key == "multi_key") {
        const std::string& p = as_string(f, field);
        if (p == "pin-first-key") {
          s.shards.multi_key = shard::MultiKeyPolicy::kPinFirstKey;
        } else if (p == "reject") {
          s.shards.multi_key = shard::MultiKeyPolicy::kReject;
        } else {
          fail(field,
               "expected \"pin-first-key\" or \"reject\", got \"" + p + "\"");
        }
      } else if (key == "range_keyspace") {
        s.shards.range_keyspace = as_int<std::uint64_t>(f, field);
      } else {
        fail(field, "unknown key");
      }
    }
  }

  void apply_key_dist(Scenario& s, const JsonValue& v) const {
    if (v.kind != JsonValue::Kind::kObject) {
      fail("key_dist", "expected an object");
    }
    wl::KeyDistConfig& kd = s.workload.key_dist;
    for (const auto& [key, f] : v.object) {
      const std::string field = "key_dist." + key;
      if (key == "dist") {
        const std::string& d = as_string(f, field);
        if (d == "paper-conflict") {
          kd.dist = wl::KeyDist::kPaperConflict;
        } else if (d == "uniform") {
          kd.dist = wl::KeyDist::kUniform;
        } else if (d == "zipfian") {
          kd.dist = wl::KeyDist::kZipfian;
        } else if (d == "hot-key") {
          kd.dist = wl::KeyDist::kHotKey;
        } else {
          fail(field, "unknown distribution \"" + d +
                          "\" (expected paper-conflict|uniform|zipfian|"
                          "hot-key)");
        }
      } else if (key == "keyspace") {
        kd.keyspace = as_int<std::uint64_t>(f, field);
      } else if (key == "theta") {
        kd.zipf_theta = as_number(f, field);
      } else if (key == "hot_fraction") {
        kd.hot_fraction = as_number(f, field);
      } else if (key == "hot_keys") {
        kd.hot_keys = as_int<std::uint64_t>(f, field);
      } else {
        fail(field, "unknown key");
      }
    }
  }

  void apply_node(Scenario& s, const JsonValue& v) const {
    if (v.kind != JsonValue::Kind::kObject) fail("node", "expected an object");
    for (const auto& [key, f] : v.object) {
      const std::string field = "node." + key;
      if (key == "batching") {
        s.node.batching = as_bool(f, field);
      } else if (key == "batch_delay_us") {
        s.node.batch_delay_us = as_int<Time>(f, field);
      } else if (key == "batch_delay_ms") {
        s.node.batch_delay_us = as_millis(f, field);
      } else if (key == "batch_max_ops") {
        s.node.batch_max_ops = as_int<std::size_t>(f, field);
      } else if (key == "pipeline_window") {
        s.node.pipeline_window = as_int<std::size_t>(f, field);
      } else if (key == "coalescing") {
        s.node.coalescing = as_bool(f, field);
      } else {
        fail(field, "unknown key");
      }
    }
  }

  void apply_flow_control(Scenario& s, const JsonValue& v) const {
    if (v.kind != JsonValue::Kind::kObject) {
      fail("flow_control", "expected an object");
    }
    for (const auto& [key, f] : v.object) {
      const std::string field = "flow_control." + key;
      if (key == "max_inflight") {
        s.workload.max_inflight = as_int<std::uint32_t>(f, field);
      } else if (key == "policy") {
        const std::string& p = as_string(f, field);
        if (p == "shed") {
          s.workload.overload_policy = wl::OverloadPolicy::kShed;
        } else if (p == "queue") {
          s.workload.overload_policy = wl::OverloadPolicy::kQueue;
        } else {
          fail(field, "expected \"shed\" or \"queue\", got \"" + p + "\"");
        }
      } else if (key == "queue_cap") {
        s.workload.overload_queue_cap = as_int<std::size_t>(f, field);
      } else {
        fail(field, "unknown key");
      }
    }
  }

  void apply_phase(Scenario& s, const JsonValue& v, std::size_t index) const {
    const std::string prefix = "phases[" + std::to_string(index) + "]";
    if (v.kind != JsonValue::Kind::kObject) fail(prefix, "expected an object");
    const JsonValue* mode = v.find("mode");
    if (mode == nullptr) fail(prefix + ".mode", "missing");
    const std::string& m = as_string(*mode, prefix + ".mode");

    wl::PhaseSpec p;
    if (const JsonValue* at = v.find("at_s")) {
      p.at = as_seconds(*at, prefix + ".at_s");
    }
    auto reject_unknown = [&](std::initializer_list<std::string_view> known) {
      for (const auto& [key, f] : v.object) {
        (void)f;
        bool ok = key == "mode" || key == "at_s";
        for (std::string_view k : known) ok = ok || key == k;
        if (!ok) fail(prefix + "." + key, "unknown key for mode \"" + m + "\"");
      }
    };
    if (m == "closed-loop") {
      p.mode = wl::PhaseSpec::Mode::kClosedLoop;
      reject_unknown({"clients_per_site", "think_ms"});
      if (const JsonValue* c = v.find("clients_per_site")) {
        p.clients_per_site =
            as_int<std::uint32_t>(*c, prefix + ".clients_per_site");
      }
      if (const JsonValue* t = v.find("think_ms")) {
        p.think_us = as_millis(*t, prefix + ".think_ms");
      }
    } else if (m == "open-loop") {
      p.mode = wl::PhaseSpec::Mode::kOpenLoop;
      reject_unknown({"rate_tps"});
      if (const JsonValue* r = v.find("rate_tps")) {
        p.arrival_rate_tps = as_number(*r, prefix + ".rate_tps");
      }
    } else if (m == "ramp") {
      p.mode = wl::PhaseSpec::Mode::kOpenLoopRamp;
      reject_unknown({"rate_tps", "to_tps"});
      if (const JsonValue* r = v.find("rate_tps")) {
        p.arrival_rate_tps = as_number(*r, prefix + ".rate_tps");
      }
      if (const JsonValue* r = v.find("to_tps")) {
        p.ramp_to_tps = as_number(*r, prefix + ".to_tps");
      }
    } else if (m == "quiesce") {
      p.mode = wl::PhaseSpec::Mode::kQuiesce;
      p.clients_per_site = 0;
      reject_unknown({});
    } else {
      fail(prefix + ".mode", "unknown mode \"" + m +
                                 "\" (expected closed-loop|open-loop|ramp|"
                                 "quiesce)");
    }
    s.phases.push_back(p);
  }

  void apply_fault(Scenario& s, const JsonValue& v, std::size_t index) const {
    const std::string prefix = "faults[" + std::to_string(index) + "]";
    if (v.kind != JsonValue::Kind::kObject) fail(prefix, "expected an object");
    const JsonValue* kind = v.find("kind");
    if (kind == nullptr) fail(prefix + ".kind", "missing");
    const std::string& k = as_string(*kind, prefix + ".kind");

    FaultEvent e;
    if (k == "crash") {
      e.kind = FaultEvent::Kind::kCrash;
    } else if (k == "recover") {
      e.kind = FaultEvent::Kind::kRecover;
    } else if (k == "partition") {
      e.kind = FaultEvent::Kind::kPartition;
    } else if (k == "heal") {
      e.kind = FaultEvent::Kind::kHeal;
    } else if (k == "power-loss") {
      e.kind = FaultEvent::Kind::kPowerLoss;
    } else if (k == "restart") {
      e.kind = FaultEvent::Kind::kRestart;
    } else {
      fail(prefix + ".kind",
           "unknown kind \"" + k +
               "\" (expected crash|recover|partition|heal|power-loss|"
               "restart)");
    }
    for (const auto& [key, f] : v.object) {
      const std::string field = prefix + "." + key;
      if (key == "kind") {
        continue;
      } else if (key == "at_s") {
        e.at = as_seconds(f, field);
      } else if (key == "node") {
        e.node = as_int<NodeId>(f, field);
      } else if (key == "a") {
        e.a = as_int<NodeId>(f, field);
      } else if (key == "b") {
        e.b = as_int<NodeId>(f, field);
      } else if (key == "group") {
        e.group = as_int<std::int32_t>(f, field);
      } else {
        fail(field, "unknown key");
      }
    }
    s.faults.push_back(e);
  }

  void apply_field(Scenario& s, const std::string& key,
                   const JsonValue& v) const {
    if (key == "base") {
      // Already applied (first, so other fields override it).
    } else if (key == "name") {
      s.name = as_string(v, key);
    } else if (key == "protocol") {
      s.protocol = as_protocol(v, key);
    } else if (key == "clients_per_site") {
      s.workload.clients_per_site = as_int<std::uint32_t>(v, key);
    } else if (key == "conflict_pct") {
      s.workload.conflict_fraction = as_number(v, key) / 100.0;
    } else if (key == "think_ms") {
      s.workload.think_us = as_millis(v, key);
    } else if (key == "duration_s") {
      s.duration = as_seconds(v, key);
    } else if (key == "warmup_s") {
      s.warmup = as_seconds(v, key);
    } else if (key == "seed") {
      s.seed = as_int<std::uint64_t>(v, key);
    } else if (key == "shards") {
      apply_shards(s, v);
    } else if (key == "key_dist") {
      apply_key_dist(s, v);
    } else if (key == "phases") {
      if (v.kind != JsonValue::Kind::kArray) fail(key, "expected an array");
      s.phases.clear();  // a file's phase list replaces the base's
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        apply_phase(s, v.array[i], i);
      }
    } else if (key == "faults") {
      if (v.kind != JsonValue::Kind::kArray) fail(key, "expected an array");
      s.faults.clear();  // a file's fault list replaces the base's
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        apply_fault(s, v.array[i], i);
      }
    } else if (key == "fd_timeout_ms") {
      s.fd_timeout_us = as_millis(v, key);
    } else if (key == "fd_suspect_partitions") {
      s.fd_suspect_partitions = as_bool(v, key);
    } else if (key == "data_dir") {
      s.storage.data_dir = as_string(v, key);
    } else if (key == "sync_mode") {
      try {
        s.storage.sync_mode = storage::parse_sync_mode(as_string(v, key));
      } catch (const std::invalid_argument& e) {
        fail(key, e.what());
      }
    } else if (key == "metrics_window_s") {
      s.metrics_window_us = as_seconds(v, key);
    } else if (key == "check_consistency") {
      s.check_consistency = as_bool(v, key);
    } else if (key == "multipaxos_leader") {
      s.multipaxos.leader = as_int<NodeId>(v, key);
    } else if (key == "node") {
      apply_node(s, v);
    } else if (key == "flow_control") {
      apply_flow_control(s, v);
    } else {
      fail(key, "unknown key");
    }
  }

  std::string_view origin_;
};

}  // namespace

Scenario scenario_from_json(std::string_view text, std::string_view origin) {
  JsonParser parser(text, origin);
  const JsonValue root = parser.parse();
  return ScenarioTranslator(origin).translate(root);
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read scenario file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return scenario_from_json(buf.str(), path);
}

}  // namespace caesar::harness
