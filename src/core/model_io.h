// File-level model shipping (the vendor -> customer flow of Fig. 1).
#pragma once

#include <string>

#include "common/status.h"
#include "core/predictor.h"

namespace qpp::core {

/// Writes a trained predictor to `path` (binary format, versioned).
Status SaveModelFile(const Predictor& predictor, const std::string& path);

/// Loads a predictor from `path`: the file must hold exactly one model.
Result<Predictor> LoadModelFile(const std::string& path);

}  // namespace qpp::core
