/**
 * @file
 * Real TCP loop behind the planning service (DESIGN.md §14).
 *
 * Deliberately minimal: one connection at a time, blocking reads,
 * line-buffered. Every line is posted through
 * PlanningService::answerLine at a monotonic wall-derived clock, so a
 * socket client goes through the same event loop and admission
 * pipeline as a script; one line at a time is in flight, so it never
 * queues. A line is buffered up to kMaxLineBytes: past that, it is
 * answered bad_request and the connection is dropped, since the
 * stream cannot be resynchronised without reading it to the end.
 */

#include <chrono>
#include <cstring>
#include <string>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/logging.h"
#include "service/server.h"

namespace doppio::service {

namespace {

void
sendAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n <= 0)
            return; // peer went away; drop the rest
        sent += static_cast<std::size_t>(n);
    }
}

} // namespace

std::uint64_t
serveTcp(PlanningService &service, int port, std::uint64_t maxRequests)
{
    const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0)
        fatal("serve: socket() failed: %s", std::strerror(errno));
    const int one = 1;
    ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::bind(listener, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        const std::string why = std::strerror(errno);
        ::close(listener);
        fatal("serve: bind(%d) failed: %s", port, why.c_str());
    }
    if (::listen(listener, 8) < 0) {
        const std::string why = std::strerror(errno);
        ::close(listener);
        fatal("serve: listen() failed: %s", why.c_str());
    }

    const auto start = std::chrono::steady_clock::now();
    const auto nowMs = [&start]() -> double {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    std::uint64_t served = 0;
    const auto done = [&] {
        return maxRequests != 0 && served >= maxRequests;
    };
    while (!done()) {
        const int conn = ::accept(listener, nullptr, nullptr);
        if (conn < 0)
            continue;
        const auto answer = [&](const std::string &line) {
            for (const std::string &reply :
                 service.answerLine(line, nowMs()))
                sendAll(conn, reply + "\n");
            ++served;
        };
        std::string buffer;
        char chunk[4096];
        while (!done()) {
            const ssize_t n = ::recv(conn, chunk, sizeof(chunk), 0);
            if (n <= 0)
                break;
            buffer.append(chunk, static_cast<std::size_t>(n));
            std::size_t eol;
            while (!done() &&
                   (eol = buffer.find('\n')) != std::string::npos) {
                std::string line = buffer.substr(0, eol);
                buffer.erase(0, eol + 1);
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                if (!line.empty())
                    answer(line);
            }
            if (!done() && buffer.size() > kMaxLineBytes) {
                answer(buffer); // the parser rejects it: bad_request
                break;
            }
        }
        ::close(conn);
    }
    ::close(listener);
    return served;
}

} // namespace doppio::service
