#include "nn/optimizer.h"

#include <cmath>

#include "common/check.h"
#include "common/row_kernels.h"

namespace enld {

void SgdOptimizer::Step(const std::vector<ParamRef>& params) {
  if (velocity_.empty()) {
    velocity_.reserve(params.size());
    for (const ParamRef& p : params) {
      velocity_.emplace_back(p.value->rows(), p.value->cols(), 0.0f);
    }
  }
  ENLD_CHECK_EQ(velocity_.size(), params.size());

  const float lr = static_cast<float>(config_.learning_rate);
  const float mu = static_cast<float>(config_.momentum);
  const float wd = static_cast<float>(config_.weight_decay);
  for (size_t i = 0; i < params.size(); ++i) {
    Matrix& w = *params[i].value;
    Matrix& g = *params[i].grad;
    Matrix& v = velocity_[i];
    ENLD_CHECK_EQ(w.size(), v.size());
    ENLD_CHECK_EQ(w.size(), g.size());
    SgdKernel(w.data(), v.data(), g.data(), w.size(), lr, mu, wd);
  }
}

void AdamOptimizer::Step(const std::vector<ParamRef>& params) {
  if (first_moment_.empty()) {
    first_moment_.reserve(params.size());
    second_moment_.reserve(params.size());
    for (const ParamRef& p : params) {
      first_moment_.emplace_back(p.value->rows(), p.value->cols(), 0.0f);
      second_moment_.emplace_back(p.value->rows(), p.value->cols(), 0.0f);
    }
  }
  ENLD_CHECK_EQ(first_moment_.size(), params.size());

  ++step_count_;
  const double b1 = config_.beta1;
  const double b2 = config_.beta2;
  const double bias1 =
      1.0 - std::pow(b1, static_cast<double>(step_count_));
  const double bias2 =
      1.0 - std::pow(b2, static_cast<double>(step_count_));
  const double lr = config_.learning_rate;
  const double eps = config_.epsilon;
  const double wd = config_.weight_decay;

  for (size_t i = 0; i < params.size(); ++i) {
    Matrix& w = *params[i].value;
    Matrix& g = *params[i].grad;
    Matrix& m = first_moment_[i];
    Matrix& v = second_moment_[i];
    ENLD_CHECK_EQ(w.size(), m.size());
    ENLD_CHECK_EQ(w.size(), g.size());
    float* wp = w.data();
    float* gp = g.data();
    float* mp = m.data();
    float* vp = v.data();
    for (size_t j = 0; j < w.size(); ++j) {
      const double grad = gp[j] + wd * wp[j];
      mp[j] = static_cast<float>(b1 * mp[j] + (1.0 - b1) * grad);
      vp[j] = static_cast<float>(b2 * vp[j] + (1.0 - b2) * grad * grad);
      const double m_hat = mp[j] / bias1;
      const double v_hat = vp[j] / bias2;
      wp[j] -= static_cast<float>(lr * m_hat / (std::sqrt(v_hat) + eps));
    }
  }
}

}  // namespace enld
