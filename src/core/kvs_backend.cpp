#include "core/kvs_backend.h"

namespace iq {

LeaseReply ToLeaseReply(QaReadReply reply) {
  LeaseReply out;
  switch (reply.status) {
    case QaReadReply::Status::kGranted:
      out.status = LeaseReply::Status::kGranted;
      break;
    case QaReadReply::Status::kReject:
      out.status = LeaseReply::Status::kReject;
      break;
    case QaReadReply::Status::kTransportError:
      out.status = LeaseReply::Status::kTransportError;
      break;
  }
  out.value = std::move(reply.value);
  out.token = reply.token;
  return out;
}

LeaseReply ToLeaseReply(QuarantineResult result) {
  LeaseReply out;
  switch (result) {
    case QuarantineResult::kGranted:
      out.status = LeaseReply::Status::kGranted;
      break;
    case QuarantineResult::kReject:
      out.status = LeaseReply::Status::kReject;
      break;
    case QuarantineResult::kTransportError:
      out.status = LeaseReply::Status::kTransportError;
      break;
  }
  return out;
}

std::vector<LeaseReply> KvsBackend::Acquire(
    SessionId tid, const std::vector<LeaseRequest>& requests) {
  std::vector<LeaseReply> replies(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const LeaseRequest& r = requests[i];
    switch (r.kind) {
      case LeaseRequest::Kind::kQaRead:
        replies[i] = ToLeaseReply(QaRead(r.key, tid));
        break;
      case LeaseRequest::Kind::kQaReg:
        replies[i] = ToLeaseReply(QaReg(tid, r.key));
        break;
      case LeaseRequest::Kind::kDelta:
        replies[i] = ToLeaseReply(IQDelta(tid, r.key, r.delta));
        break;
    }
    if (replies[i].status != LeaseReply::Status::kGranted) break;
  }
  return replies;
}

std::vector<StoreResult> KvsBackend::CommitSwaps(
    SessionId tid, const std::vector<Swap>& swaps) {
  std::vector<StoreResult> results;
  results.reserve(swaps.size());
  for (const Swap& s : swaps) results.push_back(SaR(s.key, s.value, s.token));
  Commit(tid);
  return results;
}

}  // namespace iq
