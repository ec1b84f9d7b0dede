//===- Protocol.cpp - Validation service wire protocol ------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "server/Protocol.h"

#include "support/Hashing.h"

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>
#endif

using namespace llvmmd;

//===----------------------------------------------------------------------===//
// Raw socket I/O
//===----------------------------------------------------------------------===//

namespace {

/// Sends all of \p Data. MSG_NOSIGNAL instead of a process-wide SIGPIPE
/// handler: a client hanging up mid-stream must surface as a failed write
/// on this connection, not kill the daemon.
bool sendAll(int Fd, const char *Data, size_t Len) {
#ifndef _WIN32
  while (Len > 0) {
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N <= 0)
      return false;
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
#else
  (void)Fd;
  (void)Data;
  (void)Len;
  return false;
#endif
}

/// Receives exactly \p Len bytes. Returns 1 on success, 0 on orderly EOF
/// *before the first byte*, -1 on a short read or error.
int recvAll(int Fd, char *Data, size_t Len) {
#ifndef _WIN32
  size_t Got = 0;
  while (Got < Len) {
    ssize_t N = ::recv(Fd, Data + Got, Len - Got, 0);
    if (N == 0)
      return Got == 0 ? 0 : -1;
    if (N < 0)
      return -1;
    Got += static_cast<size_t>(N);
  }
  return 1;
#else
  (void)Fd;
  (void)Data;
  (void)Len;
  return -1;
#endif
}

} // namespace

bool llvmmd::writeFrame(int Fd, FrameType Type, const std::string &Payload) {
  std::string Header;
  appendU32LE(Header, static_cast<uint32_t>(Payload.size()));
  Header.push_back(static_cast<char>(Type));
  return sendAll(Fd, Header.data(), Header.size()) &&
         sendAll(Fd, Payload.data(), Payload.size());
}

ReadStatus llvmmd::readFrame(int Fd, Frame &F, uint32_t MaxPayload) {
  char Header[5];
  int R = recvAll(Fd, Header, sizeof(Header));
  if (R == 0)
    return ReadStatus::Eof;
  if (R < 0)
    return ReadStatus::Truncated;
  size_t Cur = 0;
  uint32_t Len = 0;
  readU32LE(Header, 4, Cur, Len);
  // Reject the length before allocating or reading a single payload byte;
  // a garbage header must not let a client make the server buffer 4 GB.
  if (Len > MaxPayload)
    return ReadStatus::Oversized;
  F.Type = static_cast<FrameType>(static_cast<unsigned char>(Header[4]));
  F.Payload.resize(Len);
  if (Len > 0 && recvAll(Fd, F.Payload.data(), Len) != 1)
    return ReadStatus::Truncated;
  return ReadStatus::Ok;
}

void llvmmd::setRecvTimeout(int Fd, unsigned Ms) {
#ifndef _WIN32
  timeval Tv;
  Tv.tv_sec = Ms / 1000;
  Tv.tv_usec = static_cast<suseconds_t>((Ms % 1000) * 1000);
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
#else
  (void)Fd;
  (void)Ms;
#endif
}

//===----------------------------------------------------------------------===//
// Payload codecs. Decoders must consume exactly the payload: trailing bytes
// are as much a protocol error as missing ones.
//===----------------------------------------------------------------------===//

namespace {

bool readU8(const std::string &B, size_t &Cur, uint8_t &V) {
  if (Cur >= B.size())
    return false;
  V = static_cast<unsigned char>(B[Cur++]);
  return true;
}

bool atEnd(const std::string &B, size_t Cur) { return Cur == B.size(); }

} // namespace

std::string llvmmd::encodeHello(const HelloPayload &P) {
  std::string Out;
  appendU32LE(Out, P.Version);
  appendU64LE(Out, P.ConfigDigest);
  return Out;
}

bool llvmmd::decodeHello(const std::string &Bytes, HelloPayload &P) {
  size_t Cur = 0;
  return readU32LE(Bytes.data(), Bytes.size(), Cur, P.Version) &&
         readU64LE(Bytes.data(), Bytes.size(), Cur, P.ConfigDigest) &&
         atEnd(Bytes, Cur);
}

std::string llvmmd::encodeHelloOk(const HelloOkPayload &P) {
  std::string Out;
  appendU32LE(Out, P.Version);
  appendU64LE(Out, P.ConfigDigest);
  appendU32LE(Out, P.EngineThreads);
  Out.push_back(static_cast<char>(P.TriageEnabled));
  return Out;
}

bool llvmmd::decodeHelloOk(const std::string &Bytes, HelloOkPayload &P) {
  size_t Cur = 0;
  return readU32LE(Bytes.data(), Bytes.size(), Cur, P.Version) &&
         readU64LE(Bytes.data(), Bytes.size(), Cur, P.ConfigDigest) &&
         readU32LE(Bytes.data(), Bytes.size(), Cur, P.EngineThreads) &&
         readU8(Bytes, Cur, P.TriageEnabled) && atEnd(Bytes, Cur);
}

std::string llvmmd::encodeSubmit(const SubmitPayload &P) {
  std::string Out;
  appendU32LE(Out, static_cast<uint32_t>(P.Modules.size()));
  for (const SubmitModule &M : P.Modules) {
    Out.push_back(static_cast<char>(M.Source));
    appendLPString(Out, M.Name);
    appendLPString(Out, M.Text);
    appendU32LE(Out, M.FnCount);
  }
  // Optional trailing trace id: absent entirely for untraced submissions,
  // which keeps them byte-identical to the pre-trace v3 encoding (and
  // keeps hash-of-encoding job keys stable across the upgrade).
  if (P.TraceId)
    appendU64LE(Out, P.TraceId);
  return Out;
}

bool llvmmd::decodeSubmit(const std::string &Bytes, SubmitPayload &P) {
  size_t Cur = 0;
  uint32_t Count = 0;
  if (!readU32LE(Bytes.data(), Bytes.size(), Cur, Count))
    return false;
  // Each module costs at least 10 bytes on the wire; a count the payload
  // cannot possibly hold is rejected before the reserve.
  if (Count > Bytes.size() / 10)
    return false;
  P.Modules.clear();
  P.Modules.reserve(Count);
  for (uint32_t I = 0; I < Count; ++I) {
    SubmitModule M;
    if (!readU8(Bytes, Cur, M.Source) ||
        !readLPString(Bytes.data(), Bytes.size(), Cur, M.Name) ||
        !readLPString(Bytes.data(), Bytes.size(), Cur, M.Text) ||
        !readU32LE(Bytes.data(), Bytes.size(), Cur, M.FnCount))
      return false;
    P.Modules.push_back(std::move(M));
  }
  P.TraceId = 0;
  // The encoder writes the trailing id only when it is nonzero; a present
  // zero is not an encoding of any payload.
  if (!atEnd(Bytes, Cur) &&
      !(readU64LE(Bytes.data(), Bytes.size(), Cur, P.TraceId) && P.TraceId))
    return false;
  return atEnd(Bytes, Cur);
}

std::string llvmmd::encodeAccepted(const AcceptedPayload &P) {
  std::string Out;
  appendU64LE(Out, P.JobId);
  appendU32LE(Out, P.QueuePosition);
  return Out;
}

bool llvmmd::decodeAccepted(const std::string &Bytes, AcceptedPayload &P) {
  size_t Cur = 0;
  return readU64LE(Bytes.data(), Bytes.size(), Cur, P.JobId) &&
         readU32LE(Bytes.data(), Bytes.size(), Cur, P.QueuePosition) &&
         atEnd(Bytes, Cur);
}

std::string llvmmd::encodeFunction(const FunctionPayload &P) {
  std::string Out;
  appendU32LE(Out, P.ModuleIndex);
  appendLPString(Out, P.ModuleName);
  appendLPString(Out, P.Json);
  return Out;
}

bool llvmmd::decodeFunction(const std::string &Bytes, FunctionPayload &P) {
  size_t Cur = 0;
  return readU32LE(Bytes.data(), Bytes.size(), Cur, P.ModuleIndex) &&
         readLPString(Bytes.data(), Bytes.size(), Cur, P.ModuleName) &&
         readLPString(Bytes.data(), Bytes.size(), Cur, P.Json) &&
         atEnd(Bytes, Cur);
}

std::string llvmmd::encodeModuleReport(const ModuleReportPayload &P) {
  std::string Out;
  appendU32LE(Out, P.ModuleIndex);
  appendLPString(Out, P.Json);
  return Out;
}

bool llvmmd::decodeModuleReport(const std::string &Bytes,
                                ModuleReportPayload &P) {
  size_t Cur = 0;
  return readU32LE(Bytes.data(), Bytes.size(), Cur, P.ModuleIndex) &&
         readLPString(Bytes.data(), Bytes.size(), Cur, P.Json) &&
         atEnd(Bytes, Cur);
}

std::string llvmmd::encodeJobDone(const JobDonePayload &P) {
  std::string Out;
  appendU64LE(Out, P.JobId);
  Out.push_back(static_cast<char>(P.Status));
  appendU64LE(Out, P.Hits);
  appendU64LE(Out, P.WarmHits);
  appendU64LE(Out, P.Misses);
  appendU64LE(Out, P.SkippedIdentical);
  appendU64LE(Out, P.TriageHits);
  appendU64LE(Out, P.TriageWarmHits);
  appendU64LE(Out, P.TriageMisses);
  appendU64LE(Out, P.WallMicroseconds);
  // Optional trailing trace fields, same contract as encodeSubmit: only a
  // traced job's JobDone grows, untraced bytes stay pre-trace v3.
  if (P.TraceId) {
    appendU64LE(Out, P.TraceId);
    appendLPString(Out, P.TraceBlob);
  }
  return Out;
}

bool llvmmd::decodeJobDone(const std::string &Bytes, JobDonePayload &P) {
  size_t Cur = 0;
  if (!(readU64LE(Bytes.data(), Bytes.size(), Cur, P.JobId) &&
        readU8(Bytes, Cur, P.Status) &&
        readU64LE(Bytes.data(), Bytes.size(), Cur, P.Hits) &&
        readU64LE(Bytes.data(), Bytes.size(), Cur, P.WarmHits) &&
        readU64LE(Bytes.data(), Bytes.size(), Cur, P.Misses) &&
        readU64LE(Bytes.data(), Bytes.size(), Cur, P.SkippedIdentical) &&
        readU64LE(Bytes.data(), Bytes.size(), Cur, P.TriageHits) &&
        readU64LE(Bytes.data(), Bytes.size(), Cur, P.TriageWarmHits) &&
        readU64LE(Bytes.data(), Bytes.size(), Cur, P.TriageMisses) &&
        readU64LE(Bytes.data(), Bytes.size(), Cur, P.WallMicroseconds)))
    return false;
  P.TraceId = 0;
  P.TraceBlob.clear();
  // As in decodeSubmit, the trailing fields exist only with a nonzero id;
  // accepting a zero id would keep a blob that re-encoding drops.
  if (!atEnd(Bytes, Cur) &&
      !(readU64LE(Bytes.data(), Bytes.size(), Cur, P.TraceId) && P.TraceId &&
        readLPString(Bytes.data(), Bytes.size(), Cur, P.TraceBlob)))
    return false;
  return atEnd(Bytes, Cur);
}

std::string llvmmd::encodeError(const ErrorPayload &P) {
  std::string Out;
  Out.push_back(static_cast<char>(P.Code));
  appendLPString(Out, P.Message);
  return Out;
}

bool llvmmd::decodeError(const std::string &Bytes, ErrorPayload &P) {
  size_t Cur = 0;
  uint8_t Code = 0;
  if (!readU8(Bytes, Cur, Code) ||
      !readLPString(Bytes.data(), Bytes.size(), Cur, P.Message) ||
      !atEnd(Bytes, Cur))
    return false;
  P.Code = static_cast<ErrorCode>(Code);
  return true;
}

std::string llvmmd::encodeSubscribe(const SubscribePayload &P) {
  std::string Out;
  appendU64LE(Out, P.JobId);
  return Out;
}

bool llvmmd::decodeSubscribe(const std::string &Bytes, SubscribePayload &P) {
  size_t Cur = 0;
  return readU64LE(Bytes.data(), Bytes.size(), Cur, P.JobId) &&
         atEnd(Bytes, Cur);
}

std::string llvmmd::encodeJobId(const JobIdPayload &P) {
  std::string Out;
  appendU64LE(Out, P.JobId);
  Out.push_back(static_cast<char>(P.Deduplicated));
  appendU32LE(Out, P.ReplayedFrames);
  return Out;
}

bool llvmmd::decodeJobId(const std::string &Bytes, JobIdPayload &P) {
  size_t Cur = 0;
  return readU64LE(Bytes.data(), Bytes.size(), Cur, P.JobId) &&
         readU8(Bytes, Cur, P.Deduplicated) &&
         readU32LE(Bytes.data(), Bytes.size(), Cur, P.ReplayedFrames) &&
         atEnd(Bytes, Cur);
}

std::string llvmmd::encodeWorkerHello(const WorkerHelloPayload &P) {
  std::string Out;
  appendU64LE(Out, P.RouterId);
  appendU32LE(Out, P.WorkerIndex);
  appendU64LE(Out, P.Generation);
  return Out;
}

bool llvmmd::decodeWorkerHello(const std::string &Bytes,
                               WorkerHelloPayload &P) {
  size_t Cur = 0;
  return readU64LE(Bytes.data(), Bytes.size(), Cur, P.RouterId) &&
         readU32LE(Bytes.data(), Bytes.size(), Cur, P.WorkerIndex) &&
         readU64LE(Bytes.data(), Bytes.size(), Cur, P.Generation) &&
         atEnd(Bytes, Cur);
}

std::string llvmmd::encodeWorkerHelloOk(const WorkerHelloOkPayload &P) {
  std::string Out;
  appendU64LE(Out, P.Pid);
  appendU64LE(Out, P.JobsCompleted);
  appendLPString(Out, P.StorePath);
  return Out;
}

bool llvmmd::decodeWorkerHelloOk(const std::string &Bytes,
                                 WorkerHelloOkPayload &P) {
  size_t Cur = 0;
  return readU64LE(Bytes.data(), Bytes.size(), Cur, P.Pid) &&
         readU64LE(Bytes.data(), Bytes.size(), Cur, P.JobsCompleted) &&
         readLPString(Bytes.data(), Bytes.size(), Cur, P.StorePath) &&
         atEnd(Bytes, Cur);
}
