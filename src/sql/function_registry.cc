#include "sql/function_registry.h"

#include <cmath>

#include "common/string_util.h"

namespace flock::sql {

using storage::ColumnVector;
using storage::ColumnVectorPtr;
using storage::DataType;

void FunctionRegistry::Register(const std::string& name, ScalarFunction fn) {
  functions_[ToUpper(name)] = std::move(fn);
}

StatusOr<const ScalarFunction*> FunctionRegistry::Lookup(
    const std::string& name) const {
  auto it = functions_.find(ToUpper(name));
  if (it == functions_.end()) {
    return Status::NotFound("unknown function: " + name);
  }
  return &it->second;
}

bool FunctionRegistry::Contains(const std::string& name) const {
  return functions_.count(ToUpper(name)) > 0;
}

bool FunctionRegistry::IsScoringFunction(const std::string& name) const {
  auto it = functions_.find(ToUpper(name));
  return it != functions_.end() && it->second.bind;
}

namespace {
const std::string kDefaultPrincipal = "system";
thread_local const std::string* current_principal = &kDefaultPrincipal;
}  // namespace

const std::string& CurrentPrincipal() { return *current_principal; }

RequestScope::RequestScope(const CancelToken& cancel,
                           const std::string& principal)
    : cancel_(cancel), previous_principal_(current_principal) {
  current_principal = &principal;
}

RequestScope::~RequestScope() { current_principal = previous_principal_; }

namespace {

/// Wraps an elementwise double->double function as a vectorized kernel.
ScalarFunction MakeUnaryMath(double (*fn)(double)) {
  ScalarFunction sf;
  sf.return_type = DataType::kDouble;
  sf.min_args = 1;
  sf.max_args = 1;
  sf.kernel = [fn](const std::vector<ColumnVectorPtr>& args,
                   size_t num_rows) -> StatusOr<ColumnVectorPtr> {
    auto out = std::make_shared<ColumnVector>(DataType::kDouble);
    out->Reserve(num_rows);
    const ColumnVector& in = *args[0];
    for (size_t i = 0; i < num_rows; ++i) {
      if (in.IsNull(i)) {
        out->AppendNull();
      } else {
        out->AppendDouble(fn(in.AsDouble(i)));
      }
    }
    return out;
  };
  return sf;
}

ScalarFunction MakeStringFn(
    std::string (*fn)(const std::string&)) {
  ScalarFunction sf;
  sf.return_type = DataType::kString;
  sf.min_args = 1;
  sf.max_args = 1;
  sf.kernel = [fn](const std::vector<ColumnVectorPtr>& args,
                   size_t num_rows) -> StatusOr<ColumnVectorPtr> {
    auto out = std::make_shared<ColumnVector>(DataType::kString);
    out->Reserve(num_rows);
    const ColumnVector& in = *args[0];
    for (size_t i = 0; i < num_rows; ++i) {
      if (in.IsNull(i)) {
        out->AppendNull();
      } else {
        out->AppendString(fn(in.GetValue(i).ToString()));
      }
    }
    return out;
  };
  return sf;
}

double Round(double x) { return std::round(x); }
double Sigmoid(double x) { return 1.0 / (1.0 + std::exp(-x)); }

std::string UpperFn(const std::string& s) { return ToUpper(s); }
std::string LowerFn(const std::string& s) { return ToLower(s); }

}  // namespace

void FunctionRegistry::RegisterBuiltins(FunctionRegistry* registry) {
  registry->Register("ABS", MakeUnaryMath(std::fabs));
  registry->Register("SQRT", MakeUnaryMath(std::sqrt));
  registry->Register("EXP", MakeUnaryMath(std::exp));
  registry->Register("LN", MakeUnaryMath(std::log));
  registry->Register("LOG", MakeUnaryMath(std::log));
  registry->Register("FLOOR", MakeUnaryMath(std::floor));
  registry->Register("CEIL", MakeUnaryMath(std::ceil));
  registry->Register("ROUND", MakeUnaryMath(Round));
  registry->Register("SIGMOID", MakeUnaryMath(Sigmoid));
  registry->Register("UPPER", MakeStringFn(UpperFn));
  registry->Register("LOWER", MakeStringFn(LowerFn));

  {
    ScalarFunction sf;
    sf.return_type = DataType::kInt64;
    sf.min_args = 1;
    sf.max_args = 1;
    sf.kernel = [](const std::vector<ColumnVectorPtr>& args,
                   size_t num_rows) -> StatusOr<ColumnVectorPtr> {
      auto out = std::make_shared<ColumnVector>(DataType::kInt64);
      out->Reserve(num_rows);
      const ColumnVector& in = *args[0];
      for (size_t i = 0; i < num_rows; ++i) {
        if (in.IsNull(i)) {
          out->AppendNull();
        } else if (in.type() == DataType::kString) {
          out->AppendInt(static_cast<int64_t>(in.string_at(i).size()));
        } else {
          out->AppendInt(
              static_cast<int64_t>(in.GetValue(i).ToString().size()));
        }
      }
      return out;
    };
    registry->Register("LENGTH", sf);
  }

  {
    ScalarFunction sf;
    sf.return_type = DataType::kDouble;
    sf.min_args = 2;
    sf.max_args = 2;
    sf.kernel = [](const std::vector<ColumnVectorPtr>& args,
                   size_t num_rows) -> StatusOr<ColumnVectorPtr> {
      auto out = std::make_shared<ColumnVector>(DataType::kDouble);
      out->Reserve(num_rows);
      for (size_t i = 0; i < num_rows; ++i) {
        if (args[0]->IsNull(i) || args[1]->IsNull(i)) {
          out->AppendNull();
        } else {
          out->AppendDouble(
              std::pow(args[0]->AsDouble(i), args[1]->AsDouble(i)));
        }
      }
      return out;
    };
    registry->Register("POWER", sf);
  }

  {
    // SUBSTR(s, start[, len]) with 1-based start per SQL convention.
    ScalarFunction sf;
    sf.return_type = DataType::kString;
    sf.min_args = 2;
    sf.max_args = 3;
    sf.kernel = [](const std::vector<ColumnVectorPtr>& args,
                   size_t num_rows) -> StatusOr<ColumnVectorPtr> {
      auto out = std::make_shared<ColumnVector>(DataType::kString);
      out->Reserve(num_rows);
      for (size_t i = 0; i < num_rows; ++i) {
        if (args[0]->IsNull(i)) {
          out->AppendNull();
          continue;
        }
        std::string s = args[0]->GetValue(i).ToString();
        int64_t start = args[1]->IsNull(i)
                            ? 1
                            : static_cast<int64_t>(args[1]->AsDouble(i));
        if (start < 1) start = 1;
        size_t begin = static_cast<size_t>(start - 1);
        if (begin >= s.size()) {
          out->AppendString("");
          continue;
        }
        size_t len = s.size() - begin;
        if (args.size() == 3 && !args[2]->IsNull(i)) {
          int64_t l = static_cast<int64_t>(args[2]->AsDouble(i));
          if (l < 0) l = 0;
          len = std::min(len, static_cast<size_t>(l));
        }
        out->AppendString(s.substr(begin, len));
      }
      return out;
    };
    registry->Register("SUBSTR", sf);
    registry->Register("SUBSTRING", sf);
  }

  {
    ScalarFunction sf;
    sf.return_type = DataType::kString;
    sf.min_args = 1;
    sf.kernel = [](const std::vector<ColumnVectorPtr>& args,
                   size_t num_rows) -> StatusOr<ColumnVectorPtr> {
      auto out = std::make_shared<ColumnVector>(DataType::kString);
      out->Reserve(num_rows);
      for (size_t i = 0; i < num_rows; ++i) {
        std::string s;
        bool any_null = false;
        for (const auto& arg : args) {
          if (arg->IsNull(i)) {
            any_null = true;
            break;
          }
          s += arg->GetValue(i).ToString();
        }
        if (any_null) {
          out->AppendNull();
        } else {
          out->AppendString(std::move(s));
        }
      }
      return out;
    };
    registry->Register("CONCAT", sf);
  }

  {
    // COALESCE returns the first non-null argument; output typed like arg 0.
    ScalarFunction sf;
    sf.return_type = DataType::kDouble;
    sf.min_args = 1;
    sf.kernel = [](const std::vector<ColumnVectorPtr>& args,
                   size_t num_rows) -> StatusOr<ColumnVectorPtr> {
      auto out = std::make_shared<ColumnVector>(args[0]->type());
      out->Reserve(num_rows);
      for (size_t i = 0; i < num_rows; ++i) {
        bool found = false;
        for (const auto& arg : args) {
          if (!arg->IsNull(i)) {
            FLOCK_RETURN_NOT_OK(out->AppendValue(arg->GetValue(i)));
            found = true;
            break;
          }
        }
        if (!found) out->AppendNull();
      }
      return out;
    };
    registry->Register("COALESCE", sf);
  }
}

}  // namespace flock::sql
