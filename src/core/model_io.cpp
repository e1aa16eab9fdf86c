#include "core/model_io.h"

#include "common/serde.h"

namespace qpp::core {

Status SaveModelFile(const Predictor& predictor, const std::string& path) {
  return WriteFile(path, "model",
                   [&](std::ostream& os) { predictor.Save(&os); });
}

Result<Predictor> LoadModelFile(const std::string& path) {
  return ReadFile<Predictor>(path, "model", [](std::istream& is) {
    return Predictor::Load(&is);
  });
}

}  // namespace qpp::core
