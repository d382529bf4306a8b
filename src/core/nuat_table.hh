/**
 * @file
 * The NUAT Table — the five-element scoring system (paper Sec. 7,
 * Table 1).
 *
 * Every candidate command is scored Score = sum_k w(k) * x(k):
 *
 *  - Element 1, OPERATION-TYPE: read/write preference with write-queue
 *    hysteresis (Fig. 13).  Filling path: reads get x=1; draining path:
 *    writes get x=1.
 *  - Element 2, WAIT: x = wait cycles for ACT and column commands; the
 *    resulting score is bounded to [0, 4] (Fig. 15) so age can only
 *    break ties.
 *  - Element 3, HIT: column commands to open rows; reads get x=2,
 *    writes x=1 (Fig. 16: a read hitting a row activated for a write
 *    must tie with the write hits to exploit the open row).
 *  - Element 4, PB: ACT commands get x = #D - PB#, so rows currently in
 *    fast PBs are activated first, while they are still fast.
 *  - Element 5, BOUNDARY: ACTs to rows in a refresh-transition region
 *    get x = +1 in a warning zone (about to get slower: hurry) and
 *    x = -1 in a promising zone (about to get faster: defer).
 */

#ifndef NUAT_CORE_NUAT_TABLE_HH
#define NUAT_CORE_NUAT_TABLE_HH

#include "dram/command.hh"
#include "nuat_config.hh"
#include "pbr.hh"

namespace nuat {

/** Inputs needed to score one candidate. */
struct ScoreInputs
{
    CmdType cmd = CmdType::kAct;
    bool isWrite = false;      //!< request direction
    bool isRowHit = false;     //!< column command to an open row
    Cycle waitCycles = 0;      //!< now - request arrival
    bool draining = false;     //!< write-queue hysteresis state
    PbIdx pb{0};               //!< PB# (ACT candidates)
    unsigned numPb = 1;        //!< #D, the configured PB count
    BoundaryZone zone = BoundaryZone::kNone;
};

/** Stateless scorer implementing Table 1. */
class NuatTable
{
  public:
    explicit NuatTable(const NuatConfig &cfg)
        : weights_(cfg.weights), es2Cap_(cfg.es2Cap),
          pbEnabled_(cfg.pbElementEnabled),
          boundaryEnabled_(cfg.boundaryElementEnabled)
    {
    }

    /** Element 1: OPERATION-TYPE. */
    double es1(const ScoreInputs &in) const;

    /** Element 2: WAIT (bounded to [0, es2Cap]). */
    double es2(const ScoreInputs &in) const;

    /** Element 3: HIT. */
    double es3(const ScoreInputs &in) const;

    /** Element 4: PB (0 unless enabled and the command is an ACT). */
    double es4(const ScoreInputs &in) const;

    /** Element 5: BOUNDARY (0 unless enabled and the command is an
     *  ACT in a transition region). */
    double es5(const ScoreInputs &in) const;

    /** Total score, eq. (8)/(9): es1 + es2 + es3 + es4 + es5. */
    double
    score(const ScoreInputs &in) const
    {
        return es1(in) + es2(in) + es3(in) + es4(in) + es5(in);
    }

    /** The weights in use. */
    const NuatWeights &weights() const { return weights_; }

  private:
    NuatWeights weights_;
    double es2Cap_;
    bool pbEnabled_;
    bool boundaryEnabled_;
};

inline double
NuatTable::es1(const ScoreInputs &in) const
{
    // Fig. 13 hysteresis: on the filling path (1) reads score, on the
    // draining path (2) writes score; in between the path persists
    // (the caller's WriteDrainState carries that memory).
    const bool scores = in.draining ? in.isWrite : !in.isWrite;
    return scores ? weights_.w1 : 0.0;
}

inline double
NuatTable::es2(const ScoreInputs &in) const
{
    if (in.cmd == CmdType::kPre)
        return 0.0;
    const double s = weights_.w2 * static_cast<double>(in.waitCycles);
    return s > es2Cap_ ? es2Cap_ : s;
}

inline double
NuatTable::es3(const ScoreInputs &in) const
{
    if (!isColumnCmd(in.cmd) || !in.isRowHit)
        return 0.0;
    // Reads get 2x, writes 1x (Fig. 16): with w1 == w3, a read hit on
    // the draining path (ES1 = 0, ES3 = 2*w3) ties with a write hit
    // (ES1 = w1, ES3 = w3), so hits to a row opened for writes are
    // exploited regardless of direction.
    return weights_.w3 * (in.isWrite ? 1.0 : 2.0);
}

inline double
NuatTable::es4(const ScoreInputs &in) const
{
    if (!pbEnabled_ || in.cmd != CmdType::kAct)
        return 0.0;
    // Faster PB (smaller PB#) -> larger score: activate rows while
    // they are still fast; PB# grows with time.
    return weights_.w4 * static_cast<double>(in.numPb - in.pb.value());
}

inline double
NuatTable::es5(const ScoreInputs &in) const
{
    if (!boundaryEnabled_ || in.cmd != CmdType::kAct)
        return 0.0;
    switch (in.zone) {
      case BoundaryZone::kWarning:
        return weights_.w5;
      case BoundaryZone::kPromising:
        return -weights_.w5;
      case BoundaryZone::kNone:
        break;
    }
    return 0.0;
}

} // namespace nuat

#endif // NUAT_CORE_NUAT_TABLE_HH
