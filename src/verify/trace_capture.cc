#include "trace_capture.hh"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "charge/cell_model.hh"
#include "charge/sense_amp_model.hh"
#include "common/logging.hh"

namespace nuat {

namespace {

constexpr const char *kMagic = "nuat-cmd-trace v1";

/** Inverse of Command::name(). Returns false for unknown mnemonics. */
bool
cmdTypeFromName(const std::string &name, CmdType &type)
{
    if (name == "ACT") {
        type = CmdType::kAct;
    } else if (name == "PRE") {
        type = CmdType::kPre;
    } else if (name == "RD") {
        type = CmdType::kRead;
    } else if (name == "WR") {
        type = CmdType::kWrite;
    } else if (name == "RDA") {
        type = CmdType::kReadAp;
    } else if (name == "WRA") {
        type = CmdType::kWriteAp;
    } else if (name == "REF") {
        type = CmdType::kRef;
    } else if (name == "REFSB") {
        type = CmdType::kRefsb;
    } else {
        return false;
    }
    return true;
}

} // namespace

CommandTraceWriter::CommandTraceWriter(const std::string &path,
                                       unsigned channels,
                                       const DramGeometry &chan_geom,
                                       const TimingParams &tp,
                                       const ChargeParams &charge,
                                       const Clock &clock)
    : out_(path)
{
    if (!out_) {
        nuat_fatal("cannot open command-trace file '%s' for writing",
                   path.c_str());
    }
    nuat_assert(channels >= 1 && chan_geom.channels == 1);

    taps_.reserve(channels);
    for (unsigned ch = 0; ch < channels; ++ch) {
        taps_.push_back(std::make_unique<Tap>());
        taps_.back()->writer = this;
        taps_.back()->channel = ch;
    }

    char buf[512];
    out_ << kMagic << '\n';
    out_ << "channels " << channels << '\n';
    out_ << "geometry " << chan_geom.ranks << ' ' << chan_geom.banks
         << ' ' << chan_geom.rows << ' ' << chan_geom.columns << ' '
         << chan_geom.lineBytes << ' ' << chan_geom.columnBytes << '\n';
    std::snprintf(
        buf, sizeof(buf),
        "timing %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu %llu "
        "%llu %llu %llu %llu %llu %llu %u %llu",
        static_cast<unsigned long long>(tp.tRCD),
        static_cast<unsigned long long>(tp.tRAS),
        static_cast<unsigned long long>(tp.tRP),
        static_cast<unsigned long long>(tp.tRC),
        static_cast<unsigned long long>(tp.tCL),
        static_cast<unsigned long long>(tp.tCWL),
        static_cast<unsigned long long>(tp.tBL),
        static_cast<unsigned long long>(tp.tCCD),
        static_cast<unsigned long long>(tp.tRRD),
        static_cast<unsigned long long>(tp.tFAW),
        static_cast<unsigned long long>(tp.tWTR),
        static_cast<unsigned long long>(tp.tRTW),
        static_cast<unsigned long long>(tp.tRTP),
        static_cast<unsigned long long>(tp.tWR),
        static_cast<unsigned long long>(tp.tRTRS),
        static_cast<unsigned long long>(tp.tRFC),
        static_cast<unsigned long long>(tp.tREFI), tp.rowsPerRef,
        static_cast<unsigned long long>(tp.maxRefreshSlack));
    out_ << buf << '\n';
    // Generation extensions (bank groups, per-bank refresh).  Kept on
    // their own header line so v1 traces without them parse with the
    // DDR3 defaults.
    std::snprintf(buf, sizeof(buf), "timing-ext %llu %llu %llu %llu %u %u",
                  static_cast<unsigned long long>(tp.tCCD_L),
                  static_cast<unsigned long long>(tp.tRRD_L),
                  static_cast<unsigned long long>(tp.tRFCpb),
                  static_cast<unsigned long long>(tp.tREFSBRD),
                  tp.refreshMode == RefreshMode::kPerBank ? 1u : 0u,
                  chan_geom.bankGroups);
    out_ << buf << '\n';
    std::snprintf(buf, sizeof(buf),
                  "charge %.17g %.17g %.17g %.17g %.17g %.17g %.17g",
                  charge.vdd, charge.cellCap, charge.bitlineCap,
                  charge.retentionNs.value(), charge.endVoltageFrac,
                  charge.maxTrcdReductionNs.value(),
                  charge.maxTrasReductionNs.value());
    out_ << buf << '\n';
    std::snprintf(buf, sizeof(buf), "clock %.17g", clock.freqMhz());
    out_ << buf << '\n';
    out_ << "end-header\n";
}

CommandObserver *
CommandTraceWriter::channelTap(unsigned channel)
{
    nuat_assert(channel < taps_.size());
    return taps_[channel].get();
}

void
CommandTraceWriter::record(unsigned channel, const Command &cmd,
                           Cycle now)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%u %llu %s %u %u %u %u %llu %llu %llu", channel,
                  static_cast<unsigned long long>(now), cmd.name(),
                  cmd.rank.value(), cmd.bank.value(), cmd.row.value(),
                  cmd.col,
                  static_cast<unsigned long long>(cmd.actTiming.trcd),
                  static_cast<unsigned long long>(cmd.actTiming.tras),
                  static_cast<unsigned long long>(cmd.actTiming.trc));
    out_ << buf << '\n';
    ++commands_;
}

bool
CommandTraceWriter::finish()
{
    out_.flush();
    return static_cast<bool>(out_);
}

TraceReplayResult
replayCommandTrace(const std::string &path, std::size_t max_messages)
{
    TraceReplayResult result;
    std::ifstream in(path);
    if (!in) {
        result.error = "cannot open '" + path + "'";
        return result;
    }

    std::string line;
    if (!std::getline(in, line) || line != kMagic) {
        result.error = "bad magic (expected '" + std::string(kMagic) +
                       "')";
        return result;
    }

    unsigned channels = 0;
    DramGeometry geom;
    TimingParams tp;
    ChargeParams charge;
    double clock_mhz = kMemClock.freqMhz();
    bool saw_end = false;
    while (std::getline(in, line)) {
        std::istringstream iss(line);
        std::string key;
        iss >> key;
        if (key == "end-header") {
            saw_end = true;
            break;
        } else if (key == "channels") {
            iss >> channels;
        } else if (key == "geometry") {
            geom.channels = 1;
            iss >> geom.ranks >> geom.banks >> geom.rows >>
                geom.columns >> geom.lineBytes >> geom.columnBytes;
        } else if (key == "timing") {
            iss >> tp.tRCD >> tp.tRAS >> tp.tRP >> tp.tRC >> tp.tCL >>
                tp.tCWL >> tp.tBL >> tp.tCCD >> tp.tRRD >> tp.tFAW >>
                tp.tWTR >> tp.tRTW >> tp.tRTP >> tp.tWR >> tp.tRTRS >>
                tp.tRFC >> tp.tREFI >> tp.rowsPerRef >>
                tp.maxRefreshSlack;
        } else if (key == "timing-ext") {
            unsigned mode = 0;
            iss >> tp.tCCD_L >> tp.tRRD_L >> tp.tRFCpb >>
                tp.tREFSBRD >> mode >> geom.bankGroups;
            tp.refreshMode = mode != 0 ? RefreshMode::kPerBank
                                       : RefreshMode::kAllBank;
        } else if (key == "charge") {
            double retention = 0.0, max_trcd = 0.0, max_tras = 0.0;
            iss >> charge.vdd >> charge.cellCap >> charge.bitlineCap >>
                retention >> charge.endVoltageFrac >> max_trcd >>
                max_tras;
            charge.retentionNs = Nanoseconds{retention};
            charge.maxTrcdReductionNs = Nanoseconds{max_trcd};
            charge.maxTrasReductionNs = Nanoseconds{max_tras};
        } else if (key == "clock") {
            iss >> clock_mhz;
        } else {
            result.error = "unknown header key '" + key + "'";
            return result;
        }
        if (iss.fail()) {
            result.error = "malformed header line '" + line + "'";
            return result;
        }
    }
    if (!saw_end || channels == 0) {
        result.error = "truncated header";
        return result;
    }

    // Rebuild the charge model exactly as the capturing run did, so
    // the replayed charge-safety check uses the same ground truth.
    const Clock clock{clock_mhz};
    const CellModel cell{charge};
    const SenseAmpModel sense_amp{cell};
    NominalTiming nominal;
    nominal.trcd = tp.tRCD;
    nominal.tras = tp.tRAS;
    nominal.trp = tp.tRP;
    const TimingDerate derate{sense_amp, nominal, clock};

    std::vector<std::unique_ptr<ProtocolAuditor>> auditors;
    auditors.reserve(channels);
    for (unsigned ch = 0; ch < channels; ++ch) {
        AuditorConfig cfg;
        cfg.geometry = geom;
        cfg.timing = tp;
        cfg.derate = &derate;
        cfg.clock = clock;
        cfg.maxMessages = max_messages;
        auditors.push_back(std::make_unique<ProtocolAuditor>(cfg));
    }

    std::uint64_t line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (line.empty())
            continue;
        std::istringstream iss(line);
        unsigned ch = 0;
        unsigned long long now_ull = 0, trcd = 0, tras = 0, trc = 0;
        std::uint32_t rank_raw = 0, bank_raw = 0, row_raw = 0;
        std::string name;
        Command cmd;
        iss >> ch >> now_ull >> name >> rank_raw >> bank_raw >>
            row_raw >> cmd.col >> trcd >> tras >> trc;
        cmd.rank = RankId{rank_raw};
        cmd.bank = BankId{bank_raw};
        cmd.row = RowId{row_raw};
        if (iss.fail() || !cmdTypeFromName(name, cmd.type) ||
            ch >= channels) {
            std::ostringstream err;
            err << "malformed trace line " << line_no << ": '" << line
                << "'";
            result.error = err.str();
            return result;
        }
        cmd.actTiming = RowTiming{trcd, tras, trc};
        auditors[ch]->observe(cmd, now_ull);
    }

    result.parsed = true;
    result.channels = channels;
    for (const auto &auditor : auditors)
        result.report.merge(auditor->report(), max_messages);
    return result;
}

} // namespace nuat
