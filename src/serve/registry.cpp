#include "serve/registry.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "power/add_model.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/failpoint.hpp"
#include "support/io.hpp"
#include "support/metrics.hpp"
#include "support/parse.hpp"

namespace cfpm::serve {

namespace {

constexpr std::string_view kManifestMagic = "cfpm-registry 1";

// The registry is the daemon's cache, so its probes are the cache's
// hit/miss counters (read back by `cfpm query stats`).
const metrics::Counter& c_hit() {
  static const metrics::Counter c("serve.cache.hit");
  return c;
}
const metrics::Counter& c_miss() {
  static const metrics::Counter c("serve.cache.miss");
  return c;
}

}  // namespace

const Registry::Slot* Registry::find_locked(
    const service::ModelId& id) const {
  const auto it = slots_.find(id.key);
  if (it == slots_.end()) return nullptr;
  const service::ModelId& have = it->second.entry.id;
  if (have.check != id.check) {
    // Same 64-bit primary key, different content. Serving (or waiting on)
    // this slot would hand the requester a model of some other netlist;
    // refuse loudly.
    throw Error("registry: content-hash collision on key " + id.to_hex() +
                " (admitted as " + have.to_hex() + ")");
  }
  return &it->second;
}

std::shared_ptr<const power::PowerModel> Registry::lookup(
    const service::ModelId& id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const Slot* slot = find_locked(id);
  if (slot == nullptr || !slot->entry.model) {
    c_miss().add();
    return nullptr;
  }
  c_hit().add();
  return slot->entry.model;
}

service::BuildReply Registry::get_or_build(
    const service::ModelId& id, const std::string& circuit,
    const std::function<service::BuildReply()>& build) {
  std::promise<service::BuildReply> promise;
  std::shared_future<service::BuildReply> pending;  // stays invalid: we build
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const Slot* slot = find_locked(id);
    if (slot != nullptr && slot->entry.model) {
      c_hit().add();
      service::BuildReply reply;
      reply.id = id;
      reply.cache_hit = true;
      reply.model = slot->entry.model;
      reply.model_nodes = slot->entry.nodes;
      return reply;
    }
    if (slot != nullptr) {
      pending = slot->pending;
    } else {
      Slot& fresh = slots_[id.key];
      fresh.entry.id = id;
      fresh.pending = promise.get_future().share();
    }
  }
  c_miss().add();
  if (pending.valid()) return pending.get();  // rethrows a failed build

  // Admit or forget before the promise is kept: a waiter that wakes to a
  // kOk reply must find the model admitted.
  try {
    service::BuildReply reply = build();
    if (reply.status == service::StatusCode::kOk && reply.model) {
      admit({id, reply.model, circuit, reply.model_nodes});
    } else {
      forget(id);
    }
    promise.set_value(reply);
    return reply;
  } catch (...) {
    forget(id);
    promise.set_exception(std::current_exception());
    throw;
  }
}

void Registry::forget(const service::ModelId& id) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = slots_.find(id.key);
  if (it != slots_.end() && !it->second.entry.model) slots_.erase(it);
}

bool Registry::admit(Entry entry) {
  if (!entry.model) throw ContractError("Registry::admit: null model");
  std::lock_guard<std::mutex> lock(mutex_);
  (void)find_locked(entry.id);  // throws on a collision
  Slot& slot = slots_[entry.id.key];  // new, or a build in flight
  if (slot.entry.model) return false;  // already admitted
  slot.entry = std::move(entry);
  slot.pending = {};
  order_.push_back(&slot.entry);
  return true;
}

std::size_t Registry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return order_.size();
}

std::vector<Registry::Entry> Registry::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Entry> out;
  out.reserve(order_.size());
  for (const Entry* e : order_) out.push_back(*e);
  return out;
}

void Registry::save(const std::string& dir) const {
  static const metrics::Counter c_saved("serve.persist.saved");
  static const metrics::Counter c_skipped("serve.persist.skipped");
  CFPM_FAILPOINT("serve.persist");
  const std::vector<Entry> snapshot = entries();
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    throw IoError("registry: cannot create persist dir " + dir + ": " +
                  ec.message());
  }
  std::ostringstream manifest;
  manifest << kManifestMagic << "\n";
  for (const Entry& e : snapshot) {
    const auto* add = dynamic_cast<const power::AddPowerModel*>(e.model.get());
    if (add == nullptr) {
      // Con/Lin baselines have no serializer; they rebuild in milliseconds.
      c_skipped.add();
      continue;
    }
    const std::string file = e.id.to_hex() + ".cfpm";
    atomic_write_file(dir + "/" + file,
                      [&](std::ostream& os) { add->save(os); });
    manifest << "model " << e.id.to_hex() << " " << e.nodes << " "
             << e.circuit << "\n";
    c_saved.add();
  }
  const std::string body = manifest.str();
  atomic_write_file(dir + "/MANIFEST", [&](std::ostream& os) {
    os << body << "crc " << Crc32::of(body) << "\n";
  });
}

std::size_t Registry::load(const std::string& dir) {
  static const metrics::Counter c_loaded("serve.persist.loaded");
  static const metrics::Counter c_rejected("serve.persist.rejected");
  std::ifstream manifest(dir + "/MANIFEST");
  if (!manifest) return 0;  // cold start

  std::ostringstream buffer;
  buffer << manifest.rdbuf();
  const std::string text = buffer.str();

  // Split the CRC trailer (last line) from the body it covers.
  const auto trailer_at = text.rfind("crc ");
  if (trailer_at == std::string::npos ||
      (trailer_at != 0 && text[trailer_at - 1] != '\n')) {
    throw ParseError("registry manifest: missing crc trailer");
  }
  const std::string body = text.substr(0, trailer_at);
  std::istringstream trailer(text.substr(trailer_at));
  std::string word;
  std::uint64_t stored_crc = 0;
  if (!(trailer >> word >> stored_crc) || word != "crc" ||
      stored_crc != Crc32::of(body)) {
    throw ParseError("registry manifest: crc mismatch (torn or corrupt)");
  }
  // The trailer is the last line: bytes appended after it escape the CRC,
  // so their presence is itself evidence of tampering or a torn write.
  if (trailer >> word) {
    throw ParseError("registry manifest: trailing bytes after crc trailer");
  }

  std::istringstream lines(body);
  std::string line;
  if (!std::getline(lines, line) || line != kManifestMagic) {
    throw ParseError("registry manifest: bad magic");
  }
  std::size_t admitted = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream fields(line);
    std::string tag, hex, circuit;
    std::size_t nodes = 0;
    if (!(fields >> tag >> hex >> nodes) || tag != "model") {
      throw ParseError("registry manifest: bad entry line: " + line);
    }
    fields >> circuit;  // optional trailing name
    const auto id = service::ModelId::from_hex(hex);
    if (!id) throw ParseError("registry manifest: bad model id: " + hex);

    // The model file carries its own serialize-v2 CRC trailer; a damaged
    // file loads as ParseError and the entry is rebuilt on demand instead
    // of being served corrupt.
    std::ifstream in(dir + "/" + hex + ".cfpm");
    if (!in) {
      c_rejected.add();
      continue;
    }
    try {
      auto model = std::make_shared<power::AddPowerModel>(
          power::AddPowerModel::load(in));
      if (admit({*id, std::move(model), circuit, nodes})) {
        ++admitted;
        c_loaded.add();
      }
    } catch (const ParseError&) {
      c_rejected.add();
    }
  }
  return admitted;
}

}  // namespace cfpm::serve
