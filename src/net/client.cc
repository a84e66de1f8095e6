#include "net/client.h"

#include <sys/socket.h>

#include <utility>

#include "net/codec.h"
#include "net/frame.h"

namespace pverify {
namespace net {

namespace {

void EncodeRequestBody(const QueryRequest& request, uint32_t deadline_ms,
                       WireWriter& body) {
  RequestExtensions ext;
  ext.deadline_ms = deadline_ms;
  EncodeRequestExtensions(ext, body);
  EncodeRequest(request, body);
}

}  // namespace

Client Client::Connect(const std::string& host, uint16_t port,
                       ClientOptions options) {
  Socket sock = ConnectTcp(host, port);
  if (options.recv_timeout_ms > 0) {
    sock.SetRecvTimeoutMs(options.recv_timeout_ms);
  }
  return Client(std::move(sock), options);
}

std::unique_ptr<Client> Client::ConnectUnique(const std::string& host,
                                              uint16_t port,
                                              ClientOptions options) {
  Socket sock = ConnectTcp(host, port);
  if (options.recv_timeout_ms > 0) {
    sock.SetRecvTimeoutMs(options.recv_timeout_ms);
  }
  return std::unique_ptr<Client>(new Client(std::move(sock), options));
}

uint64_t Client::Send(const QueryRequest& request, uint32_t deadline_ms) {
  std::lock_guard<std::mutex> lock(send_mu_);
  uint64_t id = next_id_++;
  WireWriter body;
  EncodeRequestBody(request, deadline_ms, body);
  SendFrameOn(sock_, MessageType::kRequest, id, body);
  return id;
}

void Client::SendWithId(const QueryRequest& request, uint64_t request_id,
                        uint32_t deadline_ms) {
  std::lock_guard<std::mutex> lock(send_mu_);
  WireWriter body;
  EncodeRequestBody(request, deadline_ms, body);
  SendFrameOn(sock_, MessageType::kRequest, request_id, body);
}

ServeResponse Client::ReadNext() {
  std::lock_guard<std::mutex> lock(recv_mu_);
  ReceivedFrame frame;
  if (!ReceiveFrame(sock_, options_.max_body_bytes, &frame)) {
    throw WireError("wire: server closed the connection");
  }
  WireReader reader(frame.body.data(), frame.body.size());
  ServeResponse response;
  response.request_id = frame.header.request_id;
  switch (frame.header.type) {
    case MessageType::kResponse:
      response.ok = true;
      response.result = DecodeResult(reader);
      reader.ExpectEnd();
      break;
    case MessageType::kError: {
      response.ok = false;
      DecodedError err = DecodeErrorBody(reader, options_.max_body_bytes);
      reader.ExpectEnd();
      response.code = err.code;
      response.error = std::move(err.message);
      break;
    }
    case MessageType::kRequest:
      throw WireError("wire: unexpected request frame from the server");
  }
  return response;
}

ServeResponse Client::Await(uint64_t request_id) {
  {
    std::lock_guard<std::mutex> lock(recv_mu_);
    auto it = stash_.find(request_id);
    if (it != stash_.end()) {
      ServeResponse response = std::move(it->second);
      stash_.erase(it);
      return response;
    }
  }
  for (;;) {
    ServeResponse response = ReadNext();
    if (response.request_id == request_id) return response;
    std::lock_guard<std::mutex> lock(recv_mu_);
    stash_[response.request_id] = std::move(response);
  }
}

std::vector<ServeResponse> Client::Call(
    const std::vector<QueryRequest>& requests, uint32_t deadline_ms) {
  std::vector<uint64_t> ids;
  ids.reserve(requests.size());
  for (const QueryRequest& request : requests) {
    ids.push_back(Send(request, deadline_ms));
  }
  std::vector<ServeResponse> responses;
  responses.reserve(ids.size());
  for (uint64_t id : ids) responses.push_back(Await(id));
  return responses;
}

void Client::Close() {
  if (sock_.valid()) ::shutdown(sock_.fd(), SHUT_WR);
}

}  // namespace net
}  // namespace pverify
