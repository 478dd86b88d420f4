#include "llm/kv_staging.h"

#include <algorithm>

#include "common/logging.h"

namespace hilos {

WritebackBuffer::WritebackBuffer(std::size_t slices, std::size_t head_dim,
                                 std::size_t spill_interval)
    : head_dim_(head_dim), spill_interval_(spill_interval),
      k_buf_(slices), v_buf_(slices)
{
    HILOS_ASSERT(slices > 0 && head_dim > 0 && spill_interval > 0,
                 "invalid writeback buffer config");
}

bool
WritebackBuffer::append(std::size_t slice, const Half *k, const Half *v)
{
    HILOS_ASSERT(slice < k_buf_.size(), "slice out of range");
    k_buf_[slice].insert(k_buf_[slice].end(), k, k + head_dim_);
    v_buf_[slice].insert(v_buf_[slice].end(), v, v + head_dim_);
    if (buffered(slice) >= spill_interval_) {
        SpillChunk chunk;
        chunk.slice = slice;
        chunk.entries = buffered(slice);
        chunk.bytes = (k_buf_[slice].size() + v_buf_[slice].size()) *
                      sizeof(Half);
        chunk.k_data = std::move(k_buf_[slice]);
        chunk.v_data = std::move(v_buf_[slice]);
        pending_.push_back(std::move(chunk));
        k_buf_[slice].clear();
        v_buf_[slice].clear();
        return true;
    }
    return false;
}

std::size_t
WritebackBuffer::buffered(std::size_t slice) const
{
    HILOS_ASSERT(slice < k_buf_.size(), "slice out of range");
    return k_buf_[slice].size() / head_dim_;
}

HalfMatrixView
WritebackBuffer::bufferedKeys(std::size_t slice) const
{
    HILOS_ASSERT(slice < k_buf_.size(), "slice out of range");
    const auto &buf = k_buf_[slice];
    return HalfMatrixView{buf.data(), buf.size() / head_dim_, head_dim_};
}

HalfMatrixView
WritebackBuffer::bufferedValues(std::size_t slice) const
{
    HILOS_ASSERT(slice < v_buf_.size(), "slice out of range");
    const auto &buf = v_buf_[slice];
    return HalfMatrixView{buf.data(), buf.size() / head_dim_, head_dim_};
}

std::vector<float>
WritebackBuffer::partialScores(std::size_t slice,
                               const std::vector<float> &queries,
                               std::size_t d_group, float scale) const
{
    HILOS_ASSERT(queries.size() == d_group * head_dim_,
                 "query shape mismatch");
    const HalfMatrixView keys = bufferedKeys(slice);
    std::vector<float> scores(d_group * keys.rows, 0.0f);
    for (std::size_t g = 0; g < d_group; g++) {
        for (std::size_t r = 0; r < keys.rows; r++) {
            float acc = 0.0f;
            for (std::size_t c = 0; c < head_dim_; c++) {
                acc += queries[g * head_dim_ + c] *
                       keys.at(r, c).toFloat();
            }
            scores[g * keys.rows + r] = acc * scale;
        }
    }
    return scores;
}

std::vector<SpillChunk>
WritebackBuffer::takeSpills()
{
    std::vector<SpillChunk> out;
    out.swap(pending_);
    return out;
}


}  // namespace hilos
