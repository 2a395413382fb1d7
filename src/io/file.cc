#include "io/file.h"

#include <algorithm>
#include <ostream>

#include "util/failpoint.h"

namespace pubsub {

StreamSink::StreamSink(std::ostream& os, std::string site_prefix)
    : os_(&os),
      write_site_(site_prefix + ".write"),
      flush_site_(site_prefix + ".flush") {}

std::size_t StreamSink::write(const char* data, std::size_t n) {
  FailPoints& fp = FailPoints::Instance();
  if (fp.active()) {
    const FailPointDecision d = fp.eval(write_site_);
    switch (d.action) {
      case FailAction::kOff:
        break;
      case FailAction::kError:  // short write: only ARG bytes land
        os_->write(data, static_cast<std::streamsize>(std::min(d.arg, n)));
        return std::min(d.arg, n);
      case FailAction::kCrash:
        throw InjectedCrash(write_site_);
      case FailAction::kTorn: {  // ARG bytes land, then the process "dies"
        os_->write(data, static_cast<std::streamsize>(std::min(d.arg, n)));
        os_->flush();
        throw InjectedCrash(write_site_);
      }
      case FailAction::kDelay:  // no write site implements it (KnownSites)
        break;
    }
  }
  os_->write(data, static_cast<std::streamsize>(n));
  return os_->good() ? n : 0;
}

bool StreamSink::flush() {
  FailPoints& fp = FailPoints::Instance();
  if (fp.active()) {
    const FailPointDecision d = fp.eval(flush_site_);
    switch (d.action) {
      case FailAction::kOff:
      case FailAction::kTorn:   // no flush site implements these two
      case FailAction::kDelay:  // (KnownSites)
        break;
      case FailAction::kError:
        return false;
      case FailAction::kCrash:
        throw InjectedCrash(flush_site_);
    }
  }
  os_->flush();
  return os_->good();
}

}  // namespace pubsub
