#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "core/state_store.h"
#include "dist/store.h"

/// Store decorators of the traced run: each forwards to the store it wraps
/// and records a span around the calls that cross a layer boundary. They
/// only exist in the traced phase; the untraced phase hands the program
/// its stores undecorated.
namespace armusbench {

/// core -> StateStore (the write-through dist::SharedStore in barrier_kv).
class TimedStateStore final : public armus::StateStore {
 public:
  explicit TimedStateStore(std::shared_ptr<armus::StateStore> inner)
      : inner_(std::move(inner)) {}

  void set_blocked(armus::BlockedStatus status) override {
    Span span("core.store_set");
    inner_->set_blocked(std::move(status));
  }
  void clear_blocked(armus::TaskId task) override {
    Span span("core.store_clear");
    inner_->clear_blocked(task);
  }
  [[nodiscard]] std::vector<armus::BlockedStatus> snapshot() const override {
    return inner_->snapshot();
  }
  [[nodiscard]] std::size_t blocked_count() const override {
    return inner_->blocked_count();
  }
  void clear() override { inner_->clear(); }
  [[nodiscard]] std::uint64_t version() const override {
    return inner_->version();
  }

 private:
  std::shared_ptr<armus::StateStore> inner_;
};

/// dist -> SliceStore (a net::RemoteStore connection).
class TimedSliceStore final : public armus::dist::SliceStore {
 public:
  explicit TimedSliceStore(std::shared_ptr<armus::dist::SliceStore> inner)
      : inner_(std::move(inner)) {}

  std::uint64_t put_slice(armus::dist::SiteId site,
                          std::string payload) override {
    Span span("net.client.put_slice");
    return inner_->put_slice(site, std::move(payload));
  }
  std::uint64_t put_slice_delta(armus::dist::SiteId site,
                                std::uint64_t base_version,
                                const std::string& delta) override {
    Span span("net.client.put_slice_delta");
    return inner_->put_slice_delta(site, base_version, delta);
  }
  void remove_slice(armus::dist::SiteId site) override {
    inner_->remove_slice(site);
  }
  [[nodiscard]] std::vector<armus::dist::Slice> snapshot() const override {
    return inner_->snapshot();
  }
  [[nodiscard]] armus::dist::DeltaSnapshot snapshot_since(
      std::uint64_t since) const override {
    Span span("net.client.list_slices_since");
    return inner_->snapshot_since(since);
  }

 private:
  std::shared_ptr<armus::dist::SliceStore> inner_;
};

}  // namespace armusbench
