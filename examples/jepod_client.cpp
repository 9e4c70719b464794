// jepod_client — submit one job to a running jepod and print the result.
//
//   jepod_client --socket=PATH profile  <file.mjava> [MainClass]
//                [--tenant=NAME] [--seed=N] [--heap-limit=N]
//                [--max-steps=N] [--fault-plan=SPEC] [--raw]
//                [--retries=N] [--deadline-ms=N]
//                [--tier=full|sampled:N]
//   jepod_client --socket=PATH suggest  <file.mjava> [--raw]
//   jepod_client --socket=PATH optimize <file.mjava> [--raw]
//
// --deadline-ms asks the daemon to cancel the job if it hasn't finished
// within N ms (typed "deadline-exceeded" response). --retries=N retries
// transport failures and queue-full rejects up to N times with exponential
// backoff, honoring the server's retryAfterMs hint.
//
// By default the response renders like the matching jepo_cli command
// (profile prints the Fig. 4 view + program output), so
//   jepo_cli profile P.mjava   vs   jepod_client --socket=S profile P.mjava
// are directly diffable — the bit-identity check EXPERIMENTS.md describes.
// --raw prints the response JSON line verbatim instead.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "jepo/views.hpp"
#include "jepod/client.hpp"

namespace {

std::string readAll(const std::string& path) {
  if (path == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

int usage() {
  std::fprintf(stderr,
               "usage: jepod_client --socket=PATH "
               "suggest|profile|optimize <file.mjava> [MainClass] "
               "[--tenant=NAME] [--seed=N] [--heap-limit=N] [--max-steps=N] "
               "[--fault-plan=SPEC] [--raw] [--retries=N] "
               "[--deadline-ms=N] [--tier=full|sampled:N]\n");
  return 2;
}

bool parseU64(const std::string& text, unsigned long long* out) {
  char* end = nullptr;
  *out = std::strtoull(text.c_str(), &end, 10);
  return end != nullptr && end != text.c_str() && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jepo;
  std::string socketPath;
  std::string path;
  bool raw = false;
  int retries = 0;
  jepod::JobRequest req;
  req.id = "cli-1";
  req.tenant = "cli";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    unsigned long long n = 0;
    if (arg.rfind("--socket=", 0) == 0) {
      socketPath = arg.substr(9);
    } else if (arg.rfind("--tenant=", 0) == 0) {
      req.tenant = arg.substr(9);
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!parseU64(arg.substr(7), &n)) return usage();
      req.seed = n;
    } else if (arg.rfind("--heap-limit=", 0) == 0) {
      if (!parseU64(arg.substr(13), &n)) return usage();
      req.heapLimit = n;
    } else if (arg.rfind("--max-steps=", 0) == 0) {
      if (!parseU64(arg.substr(12), &n)) return usage();
      req.maxSteps = n;
    } else if (arg.rfind("--fault-plan=", 0) == 0) {
      req.faultPlan = arg.substr(13);
    } else if (arg.rfind("--tier=", 0) == 0) {
      req.tier = arg.substr(7);
    } else if (arg.rfind("--retries=", 0) == 0) {
      if (!parseU64(arg.substr(10), &n)) return usage();
      retries = static_cast<int>(n);
    } else if (arg.rfind("--deadline-ms=", 0) == 0) {
      if (!parseU64(arg.substr(14), &n)) return usage();
      req.deadlineMs = n;
    } else if (arg == "--raw") {
      raw = true;
    } else if (req.command.empty()) {
      req.command = arg;
    } else if (path.empty()) {
      path = arg;
    } else if (req.mainClass.empty()) {
      req.mainClass = arg;
    } else {
      return usage();
    }
  }
  if (socketPath.empty() || req.command.empty() || path.empty()) {
    return usage();
  }
  req.source = readAll(path);

  try {
    jepod::Client client;
    if (retries > 0) {
      jepod::RetryPolicy policy;
      policy.maxRetries = retries;
      policy.jitterSeed = req.seed;
      client.setRetryPolicy(policy);
    }
    client.connect(socketPath);
    const jepod::Response resp = client.submit(req);
    if (raw) {
      std::printf("%s\n", resp.raw.c_str());
      return resp.ok ? 0 : 1;
    }
    if (!resp.ok) {
      std::fprintf(stderr, "error [%s]: %s\n", resp.errorCode.c_str(),
                   resp.errorMessage.c_str());
      if (resp.retryAfterMs >= 0) {
        std::fprintf(stderr, "retry after %d ms\n", resp.retryAfterMs);
      }
      return 1;
    }
    if (req.command == "profile") {
      std::fputs(core::renderProfilerView(resp.profile.records).c_str(),
                 stdout);
      std::printf("\nprogram output:\n%s",
                  resp.profile.stdoutText.c_str());
    } else if (req.command == "suggest") {
      std::fputs(resp.view.c_str(), stdout);
    } else {
      std::fputs(resp.rewrittenSource.c_str(), stdout);
    }
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
