#include "common/net_fault.h"

#include <algorithm>
#include <utility>

#include "common/strings.h"

namespace kondo {

namespace {

constexpr char kInjectedDrop[] = "injected connection drop";

}  // namespace

/// A Connection decorator that forwards IO to the wrapped connection until
/// its scheduled drop point, then fails every later operation. Single
/// owner-thread use, like the connection it wraps.
class FaultInjectingConnection : public Connection {
 public:
  FaultInjectingConnection(FaultInjectingNetEnv* env,
                           std::unique_ptr<Connection> base, bool faulted,
                           int64_t drop_after_writes,
                           int64_t short_frame_bytes)
      : env_(env),
        base_(std::move(base)),
        faulted_(faulted),
        drop_after_writes_(drop_after_writes),
        short_frame_bytes_(short_frame_bytes) {}

  Status WriteFully(const void* data, size_t size) override {
    if (dropped_) {
      return DataLossError(kInjectedDrop);
    }
    if (faulted_ && writes_ == drop_after_writes_) {
      // The drop fires on this write: transmit the scheduled prefix (a
      // torn frame on the peer's wire) and half-close so the peer's next
      // read sees EOF or a short frame — exactly what a worker killed
      // mid-send leaves behind.
      const size_t prefix = static_cast<size_t>(
          std::min<int64_t>(short_frame_bytes_,
                            static_cast<int64_t>(size)));
      if (prefix > 0) {
        (void)base_->WriteFully(data, prefix);
      }
      base_->ShutdownWrite();
      dropped_ = true;
      env_->RecordFault();
      return DataLossError(kInjectedDrop);
    }
    ++writes_;
    return base_->WriteFully(data, size);
  }

  Status ReadFully(void* data, size_t size) override {
    if (dropped_) {
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
  const bool faulted_;
  const int64_t drop_after_writes_;
  const int64_t short_frame_bytes_;
  int64_t writes_ = 0;
  bool dropped_ = false;
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
  const bool faulted = plan_.drop_connection == ordinal;
  return std::make_unique<FaultInjectingConnection>(
      this, std::move(conn), faulted, plan_.drop_after_writes,
      plan_.short_frame_bytes);
}

void FaultInjectingNetEnv::RecordFault() {
  MutexLock lock(mu_);
  ++faults_;
}

int64_t FaultInjectingNetEnv::connections() const {
  MutexLock lock(mu_);
  return connections_;
}

int64_t FaultInjectingNetEnv::faults_injected() const {
  MutexLock lock(mu_);
  return faults_;
}

}  // namespace kondo
