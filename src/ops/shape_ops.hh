/**
 * @file
 * Shape operators (section 3.2.5): Flatten, Reshape, Promote, Expand
 * (reference-driven and static variants), Repeat, Zip — plus Filter, the
 * companion of Reshape's padding stream that drops padded elements after
 * compute. Shape operators only manipulate stop tokens; data contents are
 * untouched.
 *
 * The pure stop-level ones — Flatten, an identity Repeat (count 1) and
 * an innermost-dim Reshape — also come as stream views: flattenView,
 * chunkView and regroupView fold the operator into the producer's
 * output channel (dam::Channel::fold) and return the relabelled port.
 * A view delivers the operator's token stream with its latency but
 * costs no context, no extra channel and no resumes; the workload
 * builders use the views, and the operators remain as their oracle.
 */
#pragma once

#include <optional>

#include "ops/common.hh"
#include "ops/graph.hh"

namespace step {

/**
 * Stream view of FlattenOp(in, lo, hi). On a graph with
 * Graph::shapeOpChains() set, builds that operator named @p name
 * instead (likewise for the other views).
 */
StreamPort flattenView(Graph& g, const std::string& name, StreamPort in,
                       size_t lo, size_t hi);

/** Stream view of RepeatOp(in, 1): a unit innermost dimension. */
StreamPort chunkView(Graph& g, const std::string& name, StreamPort in);

/**
 * Stream view of ReshapeOp(in, 0, chunk, pad) without its padding
 * indicator stream: groups the innermost dim into chunks of @p chunk,
 * padding the last one with @p pad (no pad: the dim must divide).
 */
StreamPort regroupView(Graph& g, const std::string& name, StreamPort in,
                       int64_t chunk,
                       std::optional<Value> pad = std::nullopt);

/** The shape a channel's folded stages turn @p produced into. */
StreamShape viewedShape(const dam::Channel& ch, StreamShape produced);

/** Flatten the paper-indexed inner dimension range [lo, hi] into one. */
class FlattenOp : public OpBase
{
  public:
    FlattenOp(Graph& g, const std::string& name, StreamPort in, size_t lo,
              size_t hi);

    StreamPort out() const { return out_; }
    dam::SimTask run() override;
    void rearm(const RearmSpec& spec) override;

    void
    collectPorts(std::vector<PortDecl>& out) const override
    {
        out.push_back(PortDecl::input(in_));
        out.push_back(PortDecl::output(out_));
    }

  private:
    StreamPort in_;
    size_t lo_;
    size_t hi_;
    StreamPort out_;
    StopCoalescer coal_;
};

/**
 * Reshape splits dimension @p rank into chunks of @p chunk elements. For
 * rank 0 (the innermost dimension) a padding value pads the final chunk
 * and, unless @p pad_stream is false, a boolean padding stream marks
 * padded elements; higher dimensions must be statically divisible.
 */
class ReshapeOp : public OpBase
{
  public:
    ReshapeOp(Graph& g, const std::string& name, StreamPort in, size_t rank,
              int64_t chunk, std::optional<Value> pad = std::nullopt,
              bool pad_stream = true);

    StreamPort out() const { return out_; }
    /** Padding indicator stream (only when a pad value was supplied
     *  and the stream requested). */
    StreamPort padOut() const { return padOut_; }
    bool hasPadStream() const { return padOut_.ch != nullptr; }

    dam::SimTask run() override;
    void rearm(const RearmSpec& spec) override;

    void
    collectPorts(std::vector<PortDecl>& out) const override
    {
        out.push_back(PortDecl::input(in_));
        out.push_back(PortDecl::output(out_));
        if (hasPadStream())
            out.push_back(PortDecl::output(padOut_));
    }

  private:
    StreamPort in_;
    size_t rank_;
    int64_t chunk_;
    std::optional<Value> pad_;
    StreamPort out_;
    StreamPort padOut_;
    StopCoalescer coal_;
    StopCoalescer padCoal_;
};

/** Promote adds a new outermost dimension of extent (D_a > 0 ? 1 : 0). */
class PromoteOp : public OpBase
{
  public:
    PromoteOp(Graph& g, const std::string& name, StreamPort in);

    StreamPort out() const { return out_; }
    dam::SimTask run() override;

    void
    collectPorts(std::vector<PortDecl>& out) const override
    {
        out.push_back(PortDecl::input(in_));
        out.push_back(PortDecl::output(out_));
    }

  private:
    StreamPort in_;
    StreamPort out_;
};

/**
 * Expand repeats each input element following the reference stream's
 * structure (Figure 5); the input's dims below @p rank must be unit.
 */
class ExpandOp : public OpBase
{
  public:
    ExpandOp(Graph& g, const std::string& name, StreamPort in,
             StreamPort ref, size_t rank);

    StreamPort out() const { return out_; }
    dam::SimTask run() override;

    void
    collectPorts(std::vector<PortDecl>& out) const override
    {
        out.push_back(PortDecl::input(in_));
        out.push_back(PortDecl::input(ref_));
        out.push_back(PortDecl::output(out_));
    }

  private:
    StreamPort in_;
    StreamPort ref_;
    size_t rank_;
    StreamPort out_;
};

/** Static Expand: widens the innermost dimension by emitting each
 *  element @p count times (the static variant noted in footnote 6). */
class ExpandStaticOp : public OpBase
{
  public:
    ExpandStaticOp(Graph& g, const std::string& name, StreamPort in,
                   int64_t count);

    StreamPort out() const { return out_; }
    dam::SimTask run() override;

    void
    collectPorts(std::vector<PortDecl>& out) const override
    {
        out.push_back(PortDecl::input(in_));
        out.push_back(PortDecl::output(out_));
    }

  private:
    StreamPort in_;
    int64_t count_;
    StreamPort out_;
};

/** Repeat adds a new innermost dimension of extent @p count (Fig. 18). */
class RepeatOp : public OpBase
{
  public:
    RepeatOp(Graph& g, const std::string& name, StreamPort in,
             int64_t count);

    StreamPort out() const { return out_; }
    dam::SimTask run() override;
    void rearm(const RearmSpec& spec) override;

    void
    collectPorts(std::vector<PortDecl>& out) const override
    {
        out.push_back(PortDecl::input(in_));
        out.push_back(PortDecl::output(out_));
    }

  private:
    StreamPort in_;
    int64_t count_;
    StreamPort out_;
    StopCoalescer coal_;
};

/** Zip groups 2+ same-shape streams into a tuple-typed stream. */
class ZipOp : public OpBase
{
  public:
    ZipOp(Graph& g, const std::string& name, std::vector<StreamPort> ins);

    StreamPort out() const { return out_; }
    dam::SimTask run() override;

    void
    collectPorts(std::vector<PortDecl>& out) const override
    {
        for (const StreamPort& i : ins_)
            out.push_back(PortDecl::input(i));
        out.push_back(PortDecl::output(out_));
    }

  private:
    std::vector<StreamPort> ins_;
    StreamPort out_;
};

/**
 * Filter drops data elements whose mask-stream counterpart is nonzero
 * (used to discard Reshape padding after compute); the innermost
 * dimension becomes ragged.
 */
class FilterOp : public OpBase
{
  public:
    FilterOp(Graph& g, const std::string& name, StreamPort in,
             StreamPort mask);

    StreamPort out() const { return out_; }
    dam::SimTask run() override;
    void rearm(const RearmSpec& spec) override;

    void
    collectPorts(std::vector<PortDecl>& out) const override
    {
        out.push_back(PortDecl::input(in_));
        out.push_back(PortDecl::input(mask_));
        out.push_back(PortDecl::output(out_));
    }

  private:
    StreamPort in_;
    StreamPort mask_;
    StreamPort out_;
    StopCoalescer coal_;
};

} // namespace step
