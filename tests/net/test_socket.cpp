// Socket helpers: write_some on a connection whose peer has closed must
// report a hard error (-2) and leave the process alive. Without
// MSG_NOSIGNAL the write raises SIGPIPE, whose default action kills the
// whole test binary. Pipes must keep working through the same call.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <chrono>
#include <optional>
#include <thread>

#include "net/socket.hpp"

namespace raptee::net {
namespace {

TEST(Socket, WriteAfterPeerCloseReturnsHardErrorWithoutSigpipe) {
  auto [listener, port] = listen_loopback(0, 4);
  bool in_progress = false;
  const Fd client = connect_loopback(port, &in_progress);
  ASSERT_TRUE(client.valid());
  std::optional<Fd> server;
  for (int i = 0; i < 2000 && !server; ++i) {
    server = accept_connection(listener.get());
    if (!server) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(server.has_value()) << "loopback connection never arrived";
  server->reset();

  // The first write after the close may still succeed (the peer answers it
  // with a reset); a later one must fail with EPIPE or ECONNRESET.
  const std::array<std::uint8_t, 64> bytes{};
  long n = 0;
  for (int i = 0; i < 2000 && n != -2; ++i) {
    n = write_some(client.get(), bytes.data(), bytes.size());
    if (n != -2) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(n, -2);
}

TEST(Socket, WriteSomeStillWritesPipes) {
  int ends[2];
  ASSERT_EQ(::pipe(ends), 0);
  const Fd read_end(ends[0]);
  const Fd write_end(ends[1]);
  const std::uint8_t byte = 0x2A;
  ASSERT_EQ(write_some(write_end.get(), &byte, 1), 1);
  std::uint8_t got = 0;
  ASSERT_EQ(read_some(read_end.get(), &got, 1), 1);
  EXPECT_EQ(got, byte);
}

}  // namespace
}  // namespace raptee::net
