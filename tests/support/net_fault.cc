#include "support/net_fault.h"

#include <algorithm>
#include <atomic>
#include <utility>

namespace kondo {

namespace {

constexpr char kInjectedDrop[] = "injected connection drop";

}  // namespace

/// A Connection decorator that forwards IO to the wrapped connection until
/// its scheduled drop or mute point. Writes must be serialised by the
/// caller; reads may overlap them.
class FaultInjectingConnection : public Connection {
 public:
  FaultInjectingConnection(FaultInjectingNetEnv* env,
                           std::unique_ptr<Connection> base, int64_t ordinal)
      : env_(env),
        base_(std::move(base)),
        drops_(env->plan_.drop_connection == ordinal),
        mutes_(env->plan_.mute_connection == ordinal) {}

  Status WriteFully(const void* data, size_t size) override {
    const NetFaultPlan& plan = env_->plan_;
    if (dropped_.load()) {
      return DataLossError(kInjectedDrop);
    }
    if (drops_ && writes_ == plan.drop_after_writes) {
      // The drop fires on this write: transmit the scheduled prefix (a
      // torn frame on the peer's wire) and half-close so the peer's next
      // read sees EOF or a short frame — exactly what a worker killed
      // mid-send leaves behind.
      const size_t prefix = static_cast<size_t>(
          std::min<int64_t>(plan.short_frame_bytes,
                            static_cast<int64_t>(size)));
      if (prefix > 0) {
        (void)base_->WriteFully(data, prefix);
      }
      base_->ShutdownWrite();
      dropped_.store(true);
      env_->RecordFault();
      return DataLossError(kInjectedDrop);
    }
    if (mutes_ && writes_ >= plan.mute_after_writes) {
      if (writes_ == plan.mute_after_writes) {
        env_->RecordFault();
      }
      ++writes_;
      return OkStatus();
    }
    ++writes_;
    return base_->WriteFully(data, size);
  }

  Status ReadFully(void* data, size_t size) override {
    if (dropped_.load()) {
      return DataLossError(kInjectedDrop);
    }
    return base_->ReadFully(data, size);
  }

  Status SetRecvTimeout(int64_t micros) override {
    return base_->SetRecvTimeout(micros);
  }

  void ShutdownRead() override { base_->ShutdownRead(); }
  void ShutdownWrite() override { base_->ShutdownWrite(); }

 private:
  FaultInjectingNetEnv* const env_;
  const std::unique_ptr<Connection> base_;
  const bool drops_;
  const bool mutes_;
  int64_t writes_ = 0;
  std::atomic<bool> dropped_{false};
};

/// Wraps every accepted connection through the env's fault schedule.
class FaultInjectingListenSocket : public ListenSocket {
 public:
  FaultInjectingListenSocket(FaultInjectingNetEnv* env,
                             std::unique_ptr<ListenSocket> base)
      : ListenSocket(base->address()), env_(env), base_(std::move(base)) {}

  StatusOr<std::unique_ptr<Connection>> Accept() override {
    KONDO_ASSIGN_OR_RETURN(std::unique_ptr<Connection> conn,
                           base_->Accept());
    return env_->Wrap(std::move(conn));
  }

  void Shutdown() override { base_->Shutdown(); }

 private:
  FaultInjectingNetEnv* const env_;
  const std::unique_ptr<ListenSocket> base_;
};

FaultInjectingNetEnv::FaultInjectingNetEnv(NetEnv* base,
                                           const NetFaultPlan& plan)
    : base_(base), plan_(plan) {}

StatusOr<std::unique_ptr<ListenSocket>> FaultInjectingNetEnv::Listen(
    const SocketAddress& address) {
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<ListenSocket> listener,
                         base_->Listen(address));
  return std::unique_ptr<ListenSocket>(
      new FaultInjectingListenSocket(this, std::move(listener)));
}

StatusOr<std::unique_ptr<Connection>> FaultInjectingNetEnv::Connect(
    const SocketAddress& address) {
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<Connection> conn,
                         base_->Connect(address));
  return Wrap(std::move(conn));
}

std::unique_ptr<Connection> FaultInjectingNetEnv::Wrap(
    std::unique_ptr<Connection> conn) {
  int64_t ordinal = 0;
  {
    MutexLock lock(mu_);
    ordinal = connections_++;
  }
  return std::make_unique<FaultInjectingConnection>(this, std::move(conn),
                                                    ordinal);
}

void FaultInjectingNetEnv::RecordFault() {
  MutexLock lock(mu_);
  ++faults_;
}

int64_t FaultInjectingNetEnv::faults_injected() const {
  MutexLock lock(mu_);
  return faults_;
}

}  // namespace kondo
