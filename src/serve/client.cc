#include "serve/client.h"

#include <utility>

namespace kondo {

StatusOr<std::unique_ptr<KpcClient>> KpcClient::Connect(
    const SocketAddress& address) {
  KONDO_ASSIGN_OR_RETURN(std::unique_ptr<Connection> conn,
                         NetEnv::Default()->Connect(address));
  return std::unique_ptr<KpcClient>(new KpcClient(std::move(conn)));
}

StatusOr<KpcFrame> KpcClient::RoundTrip(KpcKind kind, std::string_view payload,
                                        KpcKind want) {
  KONDO_RETURN_IF_ERROR(WriteKpcFrame(*conn_, kind, payload));
  KONDO_ASSIGN_OR_RETURN(KpcFrame frame, ReadKpcReply(*conn_));
  if (frame.kind != want) {
    return DataLossError("unexpected response kind " +
                         std::to_string(static_cast<int>(frame.kind)));
  }
  return frame;
}

StatusOr<FetchSubsetResponse> KpcClient::FetchSubset(
    const FetchSubsetRequest& request) {
  KONDO_ASSIGN_OR_RETURN(
      const KpcFrame frame,
      RoundTrip(KpcKind::kFetchSubsetRequest, request.Encode(),
                KpcKind::kFetchSubsetResponse));
  return FetchSubsetResponse::Decode(frame.payload);
}

StatusOr<std::string> KpcClient::FetchSubsetRaw(
    const FetchSubsetRequest& request) {
  KONDO_ASSIGN_OR_RETURN(
      const KpcFrame frame,
      RoundTrip(KpcKind::kFetchSubsetRequest, request.Encode(),
                KpcKind::kFetchSubsetResponse));
  // Re-framing is byte-exact: the frame encoding is a pure function of
  // (kind, payload), so these are the bytes the server sent.
  std::string raw;
  AppendKpcFrame(frame.kind, frame.payload, &raw);
  return raw;
}

StatusOr<QueryResult> KpcClient::QueryProvenance(const QueryRequest& request) {
  KONDO_RETURN_IF_ERROR(
      WriteKpcFrame(*conn_, KpcKind::kQueryRequest, request.Encode()));
  QueryResult result;
  while (true) {
    KONDO_ASSIGN_OR_RETURN(const KpcFrame frame, ReadKpcReply(*conn_));
    if (frame.kind == KpcKind::kEventBatch) {
      KONDO_ASSIGN_OR_RETURN(EventBatch batch,
                             EventBatch::Decode(frame.payload));
      result.events.insert(result.events.end(), batch.events.begin(),
                           batch.events.end());
      continue;
    }
    if (frame.kind == KpcKind::kQueryDone) {
      KONDO_ASSIGN_OR_RETURN(result.done, QueryDone::Decode(frame.payload));
      return result;
    }
    return DataLossError("unexpected frame kind " +
                         std::to_string(static_cast<int>(frame.kind)) +
                         " in query stream");
  }
}

StatusOr<SubmitResponse> KpcClient::SubmitCampaign(
    const SubmitRequest& request) {
  KONDO_ASSIGN_OR_RETURN(const KpcFrame frame,
                         RoundTrip(KpcKind::kSubmitRequest, request.Encode(),
                                   KpcKind::kSubmitResponse));
  return SubmitResponse::Decode(frame.payload);
}

StatusOr<ServeStatsSnapshot> KpcClient::Stats() {
  KONDO_ASSIGN_OR_RETURN(const KpcFrame frame,
                         RoundTrip(KpcKind::kStatsRequest, std::string_view(),
                                   KpcKind::kStatsResponse));
  return ServeStatsSnapshot::Decode(frame.payload);
}

}  // namespace kondo
