#include "server/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstring>
#include <utility>

namespace uts::server {

namespace {

Status ErrorToStatus(const ErrorResponse& error) {
  switch (error.code) {
    case WireError::kBadRequest:
      return Status::InvalidArgument("server: " + error.message);
    case WireError::kNotFound:
      return Status::NotFound("server: " + error.message);
    case WireError::kSaturated:
      return Status::NotSupported(
          "server saturated; retry after " +
          std::to_string(error.retry_after_ms) + "ms");
    case WireError::kUnavailable:
      return Status::NotSupported("server: " + error.message);
    case WireError::kInternal:
    default:
      return Status::IOError("server: " + error.message);
  }
}

}  // namespace

Client::Client(Options options) : options_(std::move(options)) {}

Client::~Client() { CloseAbruptly(); }

Result<std::unique_ptr<Client>> Client::Connect(Options options) {
  if (options.token == 0) {
    return Status::InvalidArgument("client token must be nonzero");
  }
  std::unique_ptr<Client> client(new Client(std::move(options)));
  UTS_RETURN_NOT_OK(client->Dial());
  UTS_RETURN_NOT_OK(client->Handshake());
  return client;
}

Status Client::Dial() {
  if (!options_.unix_socket_path.empty()) {
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (options_.unix_socket_path.size() >= sizeof(addr.sun_path)) {
      return Status::InvalidArgument("unix socket path too long: " +
                                     options_.unix_socket_path);
    }
    std::strncpy(addr.sun_path, options_.unix_socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      return Status::IOError("socket(AF_UNIX) failed");
    }
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return Status::IOError("connect failed for " +
                             options_.unix_socket_path);
    }
    return Status::OK();
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    return Status::IOError("socket(AF_INET) failed");
  }
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    return Status::InvalidArgument("bad host address: " + options_.host);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return Status::IOError("connect failed for " + options_.host + ":" +
                           std::to_string(options_.port));
  }
  // Requests are small single-send frames awaiting a reply: never hold one
  // back waiting for the previous frame's ACK.
  int nodelay = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &nodelay, sizeof(nodelay));
  return Status::OK();
}

Status Client::Handshake() {
  HelloMessage hello;
  hello.client_token = options_.token;
  hello.last_seq_seen = last_seq_seen_;
  UTS_ASSIGN_OR_RETURN(
      Frame hello_frame,
      MakeFrame(static_cast<std::uint8_t>(MessageType::kHello), 0,
                hello.Encode()));
  UTS_RETURN_NOT_OK(WriteFrame(fd_, hello_frame));
  UTS_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_));
  if (static_cast<MessageType>(frame.header.type) != MessageType::kHelloAck) {
    return Status::Corruption("handshake: expected HelloAck");
  }
  UTS_ASSIGN_OR_RETURN(hello_, HelloAckMessage::Decode(frame.payload));
  if (hello_.resumed == 0) {
    // Fresh server-side session: our sequence state is meaningless now.
    last_seq_seen_ = 0;
    sweep_request_seq_ = 0;
  }
  return Status::OK();
}

Status Client::Reconnect() {
  CloseAbruptly();
  UTS_RETURN_NOT_OK(Dial());
  return Handshake();
}

void Client::CloseAbruptly() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Client::SendRequest(MessageType type, std::vector<std::uint8_t> payload,
                           std::uint64_t* seq_out) {
  if (fd_ < 0) {
    return Status::IOError("client is not connected");
  }
  // Oversize requests (e.g. a dataset upload past the 64 MiB frame cap)
  // fail here with InvalidArgument before consuming a request sequence or
  // desynchronizing the stream.
  UTS_ASSIGN_OR_RETURN(Frame frame,
                       MakeFrame(static_cast<std::uint8_t>(type),
                                 next_request_seq_, std::move(payload)));
  UTS_RETURN_NOT_OK(WriteFrame(fd_, frame));
  *seq_out = next_request_seq_++;
  return Status::OK();
}

void Client::SendAck(std::uint64_t seq) {
  AckMessage ack;
  ack.acked_seq = seq;
  // Best effort: a lost ack only means the server buffers a little longer.
  Result<Frame> frame = MakeFrame(
      static_cast<std::uint8_t>(MessageType::kAck), 0, ack.Encode());
  if (frame.ok()) WriteFrame(fd_, frame.ValueOrDie()).ok();
}

Result<Frame> Client::AwaitResponse(std::uint64_t request_seq) {
  while (true) {
    UTS_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_));
    const auto type = static_cast<MessageType>(frame.header.type);
    if (frame.header.sequence != 0) {
      if (frame.header.sequence <= last_seq_seen_) {
        continue;  // Replay overlap: already processed.
      }
      last_seq_seen_ = frame.header.sequence;
      SendAck(frame.header.sequence);
    } else if (type == MessageType::kHelloAck) {
      continue;  // Stale handshake traffic.
    }
    // Every response payload leads with the echoed request sequence.
    PayloadReader reader(frame.payload);
    Result<std::uint64_t> echoed = reader.U64();
    if (!echoed.ok()) {
      return echoed.status();
    }
    if (echoed.ValueOrDie() != request_seq) {
      continue;  // Response to an older request (e.g. abandoned sweep).
    }
    if (type == MessageType::kError) {
      UTS_ASSIGN_OR_RETURN(last_error_, ErrorResponse::Decode(frame.payload));
      return ErrorToStatus(last_error_);
    }
    return frame;
  }
}

Result<BindOkResponse> Client::Bind(const BindDatasetRequest& request) {
  std::uint64_t seq = 0;
  UTS_RETURN_NOT_OK(
      SendRequest(MessageType::kBindDataset, request.Encode(), &seq));
  UTS_ASSIGN_OR_RETURN(Frame frame, AwaitResponse(seq));
  return BindOkResponse::Decode(frame.payload);
}

Result<DatasetListResponse> Client::ListDatasets() {
  std::uint64_t seq = 0;
  UTS_RETURN_NOT_OK(SendRequest(MessageType::kListDatasets, {}, &seq));
  UTS_ASSIGN_OR_RETURN(Frame frame, AwaitResponse(seq));
  return DatasetListResponse::Decode(frame.payload);
}

Result<KnnResponse> Client::Knn(const QueryRequest& request) {
  std::uint64_t seq = 0;
  UTS_RETURN_NOT_OK(SendRequest(MessageType::kKnn, request.Encode(), &seq));
  UTS_ASSIGN_OR_RETURN(Frame frame, AwaitResponse(seq));
  return KnnResponse::Decode(frame.payload);
}

Result<IndexListResponse> Client::Range(const QueryRequest& request) {
  std::uint64_t seq = 0;
  UTS_RETURN_NOT_OK(SendRequest(MessageType::kRange, request.Encode(), &seq));
  UTS_ASSIGN_OR_RETURN(Frame frame, AwaitResponse(seq));
  return IndexListResponse::Decode(frame.payload);
}

Result<IndexListResponse> Client::Prq(const QueryRequest& request) {
  std::uint64_t seq = 0;
  UTS_RETURN_NOT_OK(SendRequest(MessageType::kPrq, request.Encode(), &seq));
  UTS_ASSIGN_OR_RETURN(Frame frame, AwaitResponse(seq));
  return IndexListResponse::Decode(frame.payload);
}

Result<SweepResponse> Client::MeasureSweep(const QueryRequest& request) {
  std::uint64_t seq = 0;
  UTS_RETURN_NOT_OK(
      SendRequest(MessageType::kMeasureSweep, request.Encode(), &seq));
  UTS_ASSIGN_OR_RETURN(Frame frame, AwaitResponse(seq));
  return SweepResponse::Decode(frame.payload);
}

Result<PongResponse> Client::Ping(std::uint32_t delay_ms, std::uint64_t echo,
                                  const std::string& dataset) {
  PingRequest request;
  request.delay_ms = delay_ms;
  request.echo = echo;
  request.dataset = dataset;
  std::uint64_t seq = 0;
  UTS_RETURN_NOT_OK(SendRequest(MessageType::kPing, request.Encode(), &seq));
  UTS_ASSIGN_OR_RETURN(Frame frame, AwaitResponse(seq));
  return PongResponse::Decode(frame.payload);
}

Status Client::StartKnnSweep(const QueryRequest& request) {
  std::uint64_t seq = 0;
  UTS_RETURN_NOT_OK(
      SendRequest(MessageType::kKnnSweep, request.Encode(), &seq));
  sweep_request_seq_ = seq;
  return Status::OK();
}

Result<KnnResponse> Client::NextSweepItem(bool* done) {
  *done = false;
  if (sweep_request_seq_ == 0) {
    return Status::InvalidArgument("no k-NN sweep in flight");
  }
  UTS_ASSIGN_OR_RETURN(Frame frame, AwaitResponse(sweep_request_seq_));
  const auto type = static_cast<MessageType>(frame.header.type);
  if (type == MessageType::kKnnSweepDone) {
    sweep_request_seq_ = 0;
    *done = true;
    return KnnResponse{};
  }
  if (type != MessageType::kKnnResult) {
    return Status::Corruption("sweep: unexpected response type");
  }
  return KnnResponse::Decode(frame.payload);
}

}  // namespace uts::server
