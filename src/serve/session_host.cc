#include "serve/session_host.h"

#include <chrono>
#include <utility>

#include "common/logging.h"

namespace kondo {
namespace {

/// Pause before retrying a transient Accept failure.
constexpr std::chrono::milliseconds kAcceptRetryPause{20};

}  // namespace

KpcSessionHost::KpcSessionHost(SessionFactory make_session, SessionEnd on_end)
    : make_session_(std::move(make_session)), on_end_(std::move(on_end)) {}

KpcSessionHost::~KpcSessionHost() { Stop(); }

Status KpcSessionHost::Start(NetEnv* net, const SocketAddress& address) {
  if (listener_ != nullptr) {
    return FailedPreconditionError("session host already started");
  }
  KONDO_ASSIGN_OR_RETURN(listener_, net->Listen(address));
  bound_address_ = listener_->address();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return OkStatus();
}

void KpcSessionHost::Stop() {
  {
    MutexLock lock(mu_);
    if (listener_ == nullptr || stopping_) {
      return;
    }
    stopping_ = true;
  }
  listener_->Shutdown();
  accept_thread_.join();
  std::list<std::unique_ptr<Session>> sessions;
  {
    MutexLock lock(mu_);
    sessions.swap(sessions_);
  }
  for (const std::unique_ptr<Session>& session : sessions) {
    session->conn->ShutdownRead();
  }
  for (const std::unique_ptr<Session>& session : sessions) {
    session->thread.join();
  }
}

bool KpcSessionHost::stopping() const {
  MutexLock lock(mu_);
  return stopping_;
}

void KpcSessionHost::AcceptLoop() {
  int64_t accepted = 0;
  while (true) {
    ReapFinished();
    StatusOr<std::unique_ptr<Connection>> conn = listener_->Accept();
    if (!conn.ok()) {
      // Checked first: with the descriptor table full, accept fails with
      // EMFILE even after Shutdown().
      if (stopping()) {
        return;
      }
      if (conn.status().code() == StatusCode::kResourceExhausted) {
        std::this_thread::sleep_for(kAcceptRetryPause);
        continue;
      }
      KONDO_LOG(Warning) << "accept loop ended: " << conn.status();
      return;
    }
    auto session = std::make_unique<Session>();
    session->id = ++accepted;
    session->conn = std::move(*conn);
    session->handler = make_session_(*session->conn, session->id);
    Session* raw = session.get();
    raw->thread = std::thread([this, raw] { SessionLoop(raw); });
    MutexLock lock(mu_);
    sessions_.push_back(std::move(session));
  }
}

void KpcSessionHost::SessionLoop(Session* session) {
  Status ended;
  while (ended.ok()) {
    StatusOr<KpcFrame> frame = ReadKpcFrame(*session->conn);
    ended = frame.ok() ? session->handler->Handle(*frame) : frame.status();
  }
  session->conn->ShutdownWrite();
  on_end_(session->id, ended);
  MutexLock lock(mu_);
  session->done = true;
}

void KpcSessionHost::ReapFinished() {
  std::list<std::unique_ptr<Session>> finished;
  {
    MutexLock lock(mu_);
    for (auto it = sessions_.begin(); it != sessions_.end();) {
      auto session = it++;
      if ((*session)->done) {
        finished.splice(finished.end(), sessions_, session);
      }
    }
  }
  for (const std::unique_ptr<Session>& session : finished) {
    session->thread.join();
  }
}

}  // namespace kondo
