#include "server/frame.hpp"

#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace uts::server {

namespace {

void PutU16(std::uint8_t* out, std::uint16_t v) {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
}

void PutU32(std::uint8_t* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void PutU64(std::uint8_t* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint16_t GetU16(const std::uint8_t* in) {
  return static_cast<std::uint16_t>(in[0] | (in[1] << 8));
}

std::uint32_t GetU32(const std::uint8_t* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in[i]) << (8 * i);
  return v;
}

std::uint64_t GetU64(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
  return v;
}

/// Blocking gather send of every byte in `iov`: one sendmsg() hands all
/// buffers to the kernel at once, and a partial write resumes where it
/// stopped. MSG_NOSIGNAL so a dead peer surfaces as EPIPE instead of
/// killing the process.
Status SendAll(int fd, iovec* iov, std::size_t iovcnt) {
  while (iovcnt > 0) {
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = iovcnt;
    const ssize_t n = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // SO_SNDTIMEO expired: the peer stopped reading. Callers treat the
        // connection as dead and keep the frame buffered for replay.
        return Status::IOError("send: timed out (peer not reading)");
      }
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    if (n == 0) return Status::IOError("send: connection closed");
    std::size_t left = static_cast<std::size_t>(n);
    while (iovcnt > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --iovcnt;
    }
    if (iovcnt > 0) {
      iov->iov_base = static_cast<std::uint8_t*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return Status::OK();
}

/// Blocking full-buffer read; IOError with a distinguishable message on
/// clean EOF so connection loops can exit quietly.
Status RecvAll(int fd, std::uint8_t* data, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) return Status::IOError("connection closed");
    got += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

}  // namespace

std::uint32_t Checksum(std::span<const std::uint8_t> payload) {
  // FNV-1a over the bytes, 64-bit state folded to 32 by xor of the halves.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint8_t byte : payload) {
    h ^= byte;
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

void EncodeFrameHeader(const FrameHeader& header, std::uint8_t* out) {
  PutU32(out + 0, FrameHeader::kMagic);
  out[4] = FrameHeader::kVersion;
  out[5] = header.type;
  PutU16(out + 6, header.flags);
  PutU64(out + 8, header.sequence);
  PutU32(out + 16, header.payload_size);
  PutU32(out + 20, header.payload_checksum);
}

Result<FrameHeader> DecodeFrameHeader(const std::uint8_t* in) {
  if (GetU32(in + 0) != FrameHeader::kMagic) {
    return Status::Corruption("frame header: bad magic");
  }
  if (in[4] != FrameHeader::kVersion) {
    return Status::Corruption("frame header: unsupported version " +
                              std::to_string(static_cast<int>(in[4])));
  }
  FrameHeader header;
  header.type = in[5];
  header.flags = GetU16(in + 6);
  header.sequence = GetU64(in + 8);
  header.payload_size = GetU32(in + 16);
  header.payload_checksum = GetU32(in + 20);
  if (header.payload_size > FrameHeader::kMaxPayloadSize) {
    return Status::Corruption("frame header: payload size " +
                              std::to_string(header.payload_size) +
                              " exceeds the protocol maximum");
  }
  return header;
}

Result<Frame> MakeFrame(std::uint8_t type, std::uint64_t sequence,
                        std::vector<std::uint8_t> payload) {
  if (payload.size() > FrameHeader::kMaxPayloadSize) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(payload.size()) +
        " bytes exceeds the protocol maximum of " +
        std::to_string(FrameHeader::kMaxPayloadSize));
  }
  Frame frame;
  frame.header.type = type;
  frame.header.sequence = sequence;
  frame.header.payload_size = static_cast<std::uint32_t>(payload.size());
  frame.header.payload_checksum = Checksum(payload);
  frame.payload = std::move(payload);
  return frame;
}

Status WriteFrame(int fd, const Frame& frame) {
  // Refuse before any byte hits the socket: a header whose size field lies
  // about the payload (truncated cast, stale hand-built frame) would
  // desynchronize every later frame on the connection.
  if (frame.payload.size() > FrameHeader::kMaxPayloadSize ||
      frame.header.payload_size != frame.payload.size()) {
    return Status::InvalidArgument(
        "frame header declares " + std::to_string(frame.header.payload_size) +
        " payload bytes but the payload holds " +
        std::to_string(frame.payload.size()));
  }
  std::uint8_t header[kFrameHeaderSize];
  EncodeFrameHeader(frame.header, header);
  // Header and payload go out in one call: two sends of a small frame hit
  // Nagle + delayed ACK on TCP and stall the response by ~40 ms.
  iovec iov[2];
  iov[0].iov_base = header;
  iov[0].iov_len = kFrameHeaderSize;
  iov[1].iov_base = const_cast<std::uint8_t*>(frame.payload.data());
  iov[1].iov_len = frame.payload.size();
  return SendAll(fd, iov, 2);
}

Result<Frame> ReadFrame(int fd) {
  std::uint8_t raw[kFrameHeaderSize];
  UTS_RETURN_NOT_OK(RecvAll(fd, raw, kFrameHeaderSize));
  UTS_ASSIGN_OR_RETURN(FrameHeader header, DecodeFrameHeader(raw));
  Frame frame;
  frame.header = header;
  frame.payload.resize(header.payload_size);
  if (header.payload_size > 0) {
    UTS_RETURN_NOT_OK(RecvAll(fd, frame.payload.data(), frame.payload.size()));
  }
  if (Checksum(frame.payload) != header.payload_checksum) {
    return Status::Corruption("frame payload: checksum mismatch");
  }
  return frame;
}

}  // namespace uts::server
