/**
 * @file
 * Statistics collection for the simulator.
 *
 * Hardware models own Counter / ScalarStat / HistogramStat objects and
 * register them with a StatRegistry under hierarchical dotted names
 * ("l2.slice0.misses"). The registry can enumerate, reset, and render
 * everything as text, CSV, or markdown.
 */

#ifndef CACHECRAFT_STATS_STATS_HPP
#define CACHECRAFT_STATS_STATS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace cachecraft {

/** A monotonically increasing event counter. */
class Counter
{
  public:
    Counter() = default;

    void inc(std::uint64_t by = 1) { value_ += by; }
    void reset() { value_ = 0; }
    std::uint64_t value() const { return value_; }

  private:
    std::uint64_t value_ = 0;
};

/** A floating-point scalar statistic (set, not accumulated). */
class ScalarStat
{
  public:
    ScalarStat() = default;

    void set(double v) { value_ = v; }
    void add(double v) { value_ += v; }
    void reset() { value_ = 0.0; }
    double value() const { return value_; }

  private:
    double value_ = 0.0;
};

/**
 * A fixed-bucket histogram over [0, bucket_width * num_buckets), with
 * an overflow bucket. Tracks count/sum/sum-of-squares/min/max for
 * mean, stddev, and extrema.
 */
class HistogramStat
{
  public:
    HistogramStat(std::uint64_t bucket_width, std::size_t num_buckets)
        : bucketWidth_(bucket_width), buckets_(num_buckets + 1, 0)
    {
    }

    /** Record one sample. */
    void sample(std::uint64_t v);

    void reset();

    std::uint64_t count() const { return count_; }
    double sum() const { return static_cast<double>(sum_); }
    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_) / double(count_) : 0.0;
    }
    /** Population standard deviation of the samples. */
    double stddev() const;
    std::uint64_t minValue() const { return count_ ? min_ : 0; }
    std::uint64_t maxValue() const { return max_; }
    std::uint64_t bucketWidth() const { return bucketWidth_; }
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /** Approximate p-quantile (0 <= q <= 1) from bucket midpoints. */
    double quantile(double q) const;

  private:
    std::uint64_t bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    /**
     * Integral accumulators (samples are integers), so the summary a
     * histogram reports is exactly order-independent — floating-point
     * sums would round differently depending on the order samples
     * arrive in, and the golden digest pins the exact values. 128
     * bits absorbs 2^64 samples of any uint64 value without overflow
     * in sum_; for
     * sumSquares_ that headroom holds for samples up to 2^32 (every
     * histogram here records latencies/depths, far below that).
     */
    unsigned __int128 sum_ = 0;
    unsigned __int128 sumSquares_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * Registry of named statistics. Does not own the stats; hardware
 * models register members for the lifetime of a run.
 */
class StatRegistry
{
  public:
    void registerCounter(const std::string &name, Counter *c);
    void registerScalar(const std::string &name, ScalarStat *s);
    void registerHistogram(const std::string &name, HistogramStat *h);

    /** Look up a counter by exact name; nullptr if absent. */
    const Counter *counter(const std::string &name) const;
    const ScalarStat *scalar(const std::string &name) const;
    const HistogramStat *histogram(const std::string &name) const;

    /** Reset every registered statistic to zero. */
    void resetAll();

    /**
     * All (name, value) pairs sorted by name: counters, scalars, and
     * per-histogram summary entries (<name>.count/.mean/.stddev/.min/
     * .max/.p50/.p99/.p999), so histogram data reaches every flat
     * consumer.
     */
    std::vector<std::pair<std::string, double>> flatten() const;

    /**
     * A cached, typed view of every value flatten() would emit, in
     * flatten()'s exact name order. Hot consumers (the epoch sampler)
     * build one view after system construction and then read current
     * values with no string-keyed lookups, name formatting, or
     * allocation per sample. The view borrows the registered stat
     * objects — it is invalidated by any later registration; detect
     * that with flattenedSize() != size().
     */
    class FlatView
    {
      public:
        std::size_t size() const { return entries_.size(); }
        const std::string &name(std::size_t i) const
        {
            return entries_[i].name;
        }
        /** Current value of entry @p i (live — re-read each sample). */
        double value(std::size_t i) const;

      private:
        friend class StatRegistry;

        enum class Kind : std::uint8_t
        {
            kCounter,
            kScalar,
            kHistCount,
            kHistMean,
            kHistStddev,
            kHistMin,
            kHistMax,
            kHistP50,
            kHistP99,
            kHistP999,
        };

        struct Entry
        {
            std::string name;
            const void *src = nullptr;
            Kind kind = Kind::kCounter;
        };

        std::vector<Entry> entries_;
    };

    /** Build a FlatView over the current registrations. */
    FlatView flatView() const;

    /** Number of entries flatten()/flatView() would produce now. */
    std::size_t
    flattenedSize() const
    {
        return counters_.size() + scalars_.size() + histograms_.size() * 8;
    }

    /** All registered histograms, sorted by name. */
    std::vector<std::pair<std::string, const HistogramStat *>>
    histograms() const;

    /** Render all stats as aligned "name value" text. */
    std::string renderText() const;

    /** Render all stats as "name,value" CSV with a header row. */
    std::string renderCsv() const;

    /**
     * Render everything as one JSON object: {"counters": {...},
     * "scalars": {...}, "histograms": {name: {count, mean, stddev,
     * min, max, p50, p99, p999, bucket_width, buckets}}}.
     */
    std::string renderJson() const;

  private:
    std::map<std::string, Counter *> counters_;
    std::map<std::string, ScalarStat *> scalars_;
    std::map<std::string, HistogramStat *> histograms_;
};

} // namespace cachecraft

#endif // CACHECRAFT_STATS_STATS_HPP
