/**
 * @file
 * Frozen evidence of the retired synchronous epoch round loop.
 *
 * EngineMode::Epoch used to run a dedicated round loop in
 * Server::serve; it now runs the event engine's epoch-cadence
 * schedule, which the differential tests had pinned bit-identical to
 * the loop. These digests were taken from the loop itself (Release
 * and Debug gcc builds agree) so those tests keep comparing against
 * the loop rather than against the code under test:
 *
 *   - reportDigest (fleet_scenarios.h) of the loop's FleetReport for
 *     each scenario below, at one thread;
 *   - bytesDigest of the Chrome-trace and JSONL exports of the loop's
 *     decision trace for makeFleetScenario seeds 5-8.
 *
 * They were produced by serving each scenario with
 * ServerOptions::engine = EngineMode::Epoch on the last commit that
 * still had the loop, and printing the digests. An intentional change
 * to fleet behaviour must regenerate them the same way from the epoch
 * schedule, after checking the change is meant.
 */
#ifndef POWERDIAL_TESTS_EPOCH_LOOP_DIGESTS_H
#define POWERDIAL_TESTS_EPOCH_LOOP_DIGESTS_H

#include <cstdint>

namespace powerdial::fleet::tests {

/** makeFleetScenario(seed), seeds 1-50: kSweepDigests[seed - 1]. */
inline constexpr std::uint64_t kSweepDigests[50] = {
    0x04c6fa76bac25733ULL, // seed 1
    0x5bef2f66959db2d8ULL, // seed 2
    0xd8d722176bfb2ae3ULL, // seed 3
    0x902466e80b893fa0ULL, // seed 4
    0x7a7b5b0f47418474ULL, // seed 5
    0x81464966f3cc6acaULL, // seed 6
    0x48d6843445a88d1eULL, // seed 7
    0xfabcdfaab82f2fe4ULL, // seed 8
    0xe539e1a38b0aee09ULL, // seed 9
    0xe17573068d114616ULL, // seed 10
    0xe6d2ed816546e1b1ULL, // seed 11
    0x4643ece76483c0abULL, // seed 12
    0xaac4e3a6d498c42fULL, // seed 13
    0xa11a4a0b198b200bULL, // seed 14
    0xcd296e492aa2d0dfULL, // seed 15
    0x2dc0dd790771bdf0ULL, // seed 16
    0xcbfb19cd20bc13daULL, // seed 17
    0xa6413ab60e15cd14ULL, // seed 18
    0xdf56f2e60a9c13c3ULL, // seed 19
    0x9188cf088bcff15cULL, // seed 20
    0xc9e7e7beb054b35aULL, // seed 21
    0x9d556ed2f09d6eadULL, // seed 22
    0x5f0c27b43f05c36fULL, // seed 23
    0xff8889a9eee85800ULL, // seed 24
    0x82679734a481ee7eULL, // seed 25
    0x9ca2426b20b88fb8ULL, // seed 26
    0x621e6e4b030d5c43ULL, // seed 27
    0x023a7a1260ecaf2eULL, // seed 28
    0xb5a4d8e765f325ceULL, // seed 29
    0x4e1d060ac1585816ULL, // seed 30
    0xd29c8715005fb23dULL, // seed 31
    0x607beaebbdf96af0ULL, // seed 32
    0x791adaea55f02901ULL, // seed 33
    0x13361e6b1d6c5f2eULL, // seed 34
    0xb053f2b7167d4366ULL, // seed 35
    0x80a171cb1eb70a90ULL, // seed 36
    0xee8a847b8d46c76aULL, // seed 37
    0x9ec1f017a21dd877ULL, // seed 38
    0x566dc767ef4ff48eULL, // seed 39
    0x563fde6239597f38ULL, // seed 40
    0x1fd97c3957c2a661ULL, // seed 41
    0x3b5459434f820b11ULL, // seed 42
    0x69566038860514c8ULL, // seed 43
    0x0d0b8080d1122c98ULL, // seed 44
    0x159f375a69f7c712ULL, // seed 45
    0x95eb86ade7070655ULL, // seed 46
    0x77c6a74fbb91ccc0ULL, // seed 47
    0x0e047233265dcc3bULL, // seed 48
    0x920a0788b5134df3ULL, // seed 49
    0xb52b06f7e030f7e8ULL, // seed 50
};

/** makeFleetScenario(42), the differential spike scenario. */
inline constexpr std::uint64_t kSpikeDigest = 0x3b5459434f820b11ULL;

/** makeFleetScenario(7) forced onto one machine, queue depth 3, half-
 *  baseline epochs, arrivals {6, 6, 0, 6, 1, 0, 0}: the shed-
 *  accounting scenario. */
inline constexpr std::uint64_t kShedDigest = 0xf30c57576c66b69bULL;

/** Predictive admission over the flash-crowd TrafficMix schedule of
 *  test_fleet_admission.cc (two machines, queue depth 4, half-baseline
 *  epochs, 130 W cap). */
inline constexpr std::uint64_t kPredictiveOverloadDigest = 0x5e34de7d4fcb4debULL;

/** Chrome-trace export digests, seeds 5-8: kChromeTraceDigests[seed - 5]. */
inline constexpr std::uint64_t kChromeTraceDigests[4] = {
    0x8d3e7e86bb6efcf7ULL, // seed 5
    0x9054b575eb7c60faULL, // seed 6
    0xb51bb60eed1ac946ULL, // seed 7
    0x2fca65c15ade087fULL, // seed 8
};

/** JSONL export digests, seeds 5-8: kJsonlTraceDigests[seed - 5]. */
inline constexpr std::uint64_t kJsonlTraceDigests[4] = {
    0x6ef665a893583c2fULL, // seed 5
    0xa30ad1db47a626dcULL, // seed 6
    0x2a2cb92cc9af85bfULL, // seed 7
    0x03493f0e1ba3b41eULL, // seed 8
};

} // namespace powerdial::fleet::tests

#endif // POWERDIAL_TESTS_EPOCH_LOOP_DIGESTS_H
