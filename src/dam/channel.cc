#include "dam/channel.hh"

#include <algorithm>

#include "dam/scheduler.hh"
#include "support/error.hh"

namespace step::dam {

Channel::Channel(std::string name, size_t capacity, Cycle latency)
    : name_(std::move(name)), capacity_(capacity), latency_(latency),
      initCredits_(capacity)
{
    STEP_ASSERT(capacity_ >= 1, "channel capacity must be >= 1");
}

void
Channel::reinit(std::string_view name, size_t capacity, Cycle latency)
{
    STEP_ASSERT(capacity >= 1, "channel capacity must be >= 1");
    name_.assign(name); // reuses the string's buffer when it fits
    capacity_ = capacity;
    latency_ = latency;
    view_.clear();
    nextHeld_ = nullptr;
    listedHeld_ = false;
    feedAppended_ = 0;
    entries_.clear();
    credits_.clear();
    initCredits_ = capacity_;
    lastReady_ = 0;
    producer_ = nullptr;
    consumer_ = nullptr;
    waitingReader_ = nullptr;
    waitingWriter_ = nullptr;
    totalPushed_ = 0;
}

Cycle
Channel::frontTime() const
{
    STEP_ASSERT(!entries_.empty(), "frontTime on empty channel " << name_);
    return entries_.front().ready;
}

const Token&
Channel::frontToken() const
{
    STEP_ASSERT(!entries_.empty(), "frontToken on empty channel " << name_);
    return entries_.front().tok;
}

void
WaitAny::await_suspend(std::coroutine_handle<>) const
{
    for (Channel* c : chans)
        c->setWaitingReader(&self);
    self.state_ = CtxState::Blocked;
    self.block_ = BlockInfo{BlockInfo::Kind::Select, nullptr, chans.size()};
}

void
WaitUntil::await_suspend(std::coroutine_handle<>) const
{
    for (Channel* c : chans)
        c->setWaitingReader(&self);
    self.scheduler()->suspendUntil(&self, deadline);
}

void
Yield::await_suspend(std::coroutine_handle<>) const
{
    self.scheduler()->yieldRunning(&self);
}

/** Dynamics-only reset for the rearm path (see header). */
void
Channel::rearm(size_t capacity)
{
    STEP_ASSERT(capacity >= 1, "channel capacity must be >= 1");
    capacity_ = capacity;
    entries_.clear();
    credits_.clear();
    initCredits_ = capacity_;
    lastReady_ = 0;
    waitingReader_ = nullptr;
    waitingWriter_ = nullptr;
    totalPushed_ = 0;
    nextHeld_ = nullptr;
    listedHeld_ = false;
    feedAppended_ = 0;
    for (ViewStage& s : view_) {
        s.seen = 0;
        s.free = 0;
        s.held = 0;
        s.heldAt = 0;
    }
}

void
Channel::fold(ViewStage stage)
{
    STEP_ASSERT(consumer_ == nullptr,
                "fold onto channel " << name_ << " after its consumer "
                "bound it");
    view_.push_back(std::move(stage));
}

namespace {

/** Emit through @p emit the tokens @p s produces for @p t, before
 *  coalescing (the operator's run() loop body). */
template <typename Emit>
void
applyStage(ViewStage& s, Token&& t, Emit&& emit)
{
    switch (s.kind) {
    case ViewStage::Kind::Flatten:
        // Stops inside the flattened range dissolve; outer ones shift
        // down by the number of merged levels (FlattenOp::run).
        if (t.isStop() && t.level() > s.lo) {
            if (t.level() <= s.hi)
                return;
            t = Token::stop(t.level() - (s.hi - s.lo));
        }
        emit(std::move(t));
        return;
    case ViewStage::Kind::Chunk:
        if (t.isStop()) {
            emit(Token::stop(t.level() + 1));
        } else {
            const bool data = t.isData();
            emit(std::move(t));
            if (data)
                emit(Token::stop(1));
        }
        return;
    case ViewStage::Kind::Regroup: {
        if (t.isData()) {
            emit(std::move(t));
            if (++s.seen % s.chunk == 0)
                emit(Token::stop(1));
            return;
        }
        // A stop or Done closes the innermost dim: pad its last group.
        if (s.seen % s.chunk != 0) {
            STEP_ASSERT(s.pad, "dimension of " << s.seen
                        << " not divisible by " << s.chunk
                        << " and no pad value");
            while (s.seen % s.chunk != 0) {
                emit(Token::data(*s.pad));
                ++s.seen;
            }
            if (t.isDone())
                emit(Token::stop(1));
        }
        s.seen = 0;
        emit(t.isStop() ? Token::stop(t.level() + 1) : std::move(t));
        return;
    }
    }
}

/** StopCoalescer step of @p s: pass @p t on at @p at, holding stops. */
template <typename Next>
void
coalesceStage(ViewStage& s, Token&& t, Cycle at, Next&& next)
{
    if (t.isStop() && s.held != 0 && s.held < t.level()) {
        s.held = t.level(); // nested ends coincide: upgrade
        s.heldAt = at;
        return;
    }
    if (s.held != 0) {
        const uint32_t level = s.held;
        s.held = 0;
        next(Token::stop(level));
    }
    if (t.isStop()) {
        s.held = t.level();
        s.heldAt = at;
        return;
    }
    next(std::move(t));
}

} // namespace

void
Channel::feed(size_t k, Token&& t, Cycle arrive, Context& writer)
{
    if (k == view_.size()) {
        if (feedAppended_ == 0) {
            // One credit per pushed token that leaves entries behind.
            if (feedTakesCredit_)
                takeCredit(writer);
            feedHead_ = entries_.size();
        }
        ++feedAppended_;
        Entry& slot = entries_.push_slot();
        lastReady_ = std::max(lastReady_, arrive);
        slot.ready = lastReady_;
        slot.releasesCredit = false;
        slot.tok = std::move(t);
        ++totalPushed_;
        return;
    }
    ViewStage& s = view_[k];
    s.free = std::max(arrive, s.free) + 1;
    const Cycle at = s.free + latency_;
    applyStage(s, std::move(t), [&](Token&& out) {
        coalesceStage(s, std::move(out), at, [&](Token&& pass) {
            feed(k + 1, std::move(pass), at, writer);
        });
    });
}

void
Channel::finishFeed(Context& writer, bool release_credit)
{
    if (feedAppended_ == 0)
        return;
    // The credit returns when the last entry of the push is popped.
    entries_.back().releasesCredit = release_credit;
    feedAppended_ = 0;
    if (waitingReader_) {
        Context* r = waitingReader_;
        waitingReader_ = nullptr;
        writer.scheduler()->makeReadyAt(r, entries_.at(feedHead_).ready);
    }
}

void
Channel::pushViewed(Context& writer, Token&& t, Cycle min_ready)
{
    STEP_ASSERT(hasCredit(), "push without credit on " << name_);
    // The token reaches the first folded operator one hop after the
    // write (the credit it waits for is taken only if it leaves entries
    // behind; a token the stages drop or hold never occupies the FIFO).
    const Cycle credit = initCredits_ > 0 ? 0 : credits_.front();
    feedTakesCredit_ = true;
    feed(0, std::move(t),
         std::max(std::max(writer.now(), credit) + latency_, min_ready),
         writer);
    finishFeed(writer, true);
    if (!listedHeld_) {
        for (const ViewStage& s : view_) {
            if (s.held != 0) {
                listedHeld_ = true;
                nextHeld_ = writer.heldViews_;
                writer.heldViews_ = this;
                break;
            }
        }
    }
}

void
Channel::releaseHeld(Context& writer)
{
    Channel* ch = writer.heldViews_;
    writer.heldViews_ = nullptr;
    while (ch) {
        Channel* next = ch->nextHeld_;
        ch->nextHeld_ = nullptr;
        ch->listedHeld_ = false;
        // In stage order: a released stop may meet (and upgrade) the
        // next stage's held stop, which is then released in turn.
        ch->feedTakesCredit_ = false;
        for (size_t k = 0; k < ch->view_.size(); ++k) {
            ViewStage& s = ch->view_[k];
            if (s.held == 0)
                continue;
            const uint32_t level = s.held;
            s.held = 0;
            ch->feed(k + 1, Token::stop(level), s.heldAt, writer);
        }
        ch->finishFeed(writer, false);
        ch = next;
    }
}

std::string
BlockInfo::toString() const
{
    switch (kind) {
    case Kind::Read:
        return "read " + ch->name();
    case Kind::Write:
        return "write " + ch->name() + " (full)";
    case Kind::Select:
        return "select over " + std::to_string(selectCount) + " channels";
    case Kind::TimedWait:
        return "timed wait";
    case Kind::None:
        break;
    }
    return "<unknown>";
}

} // namespace step::dam
