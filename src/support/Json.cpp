//===- support/Json.cpp - Minimal JSON reader/writer ------------------------===//

#include "support/Json.h"

#include "support/StringUtil.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <sstream>

using namespace alf;
using namespace alf::json;

//===----------------------------------------------------------------------===//
// Construction and access
//===----------------------------------------------------------------------===//

Value Value::boolean(bool B) {
  Value V;
  V.K = Kind::Bool;
  V.B = B;
  return V;
}

Value Value::number(double N) {
  Value V;
  V.K = Kind::Number;
  V.Num = N;
  return V;
}

Value Value::str(std::string S) {
  Value V;
  V.K = Kind::String;
  V.Str = std::move(S);
  return V;
}

Value Value::array() {
  Value V;
  V.K = Kind::Array;
  return V;
}

Value Value::object() {
  Value V;
  V.K = Kind::Object;
  return V;
}

const Value *Value::get(const std::string &Key) const {
  if (K != Kind::Object)
    return nullptr;
  for (const auto &[Name, V] : Obj)
    if (Name == Key)
      return &V;
  return nullptr;
}

void Value::set(std::string Key, Value V) {
  for (auto &[Name, Existing] : Obj)
    if (Name == Key) {
      Existing = std::move(V);
      return;
    }
  Obj.emplace_back(std::move(Key), std::move(V));
}

std::optional<double> Value::getNumber(const std::string &Key) const {
  const Value *V = get(Key);
  if (!V || !V->isNumber())
    return std::nullopt;
  return V->asNumber();
}

std::optional<std::string> Value::getString(const std::string &Key) const {
  const Value *V = get(Key);
  if (!V || !V->isString())
    return std::nullopt;
  return V->asString();
}

std::optional<bool> Value::getBool(const std::string &Key) const {
  const Value *V = get(Key);
  if (!V || !V->isBool())
    return std::nullopt;
  return V->asBool();
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

std::string json::escapeString(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += formatString("\\u%04x", C);
      else
        Out += C;
    }
  }
  return Out;
}

namespace {

/// Shortest float rendering that round-trips and never prints NaN/Inf
/// (JSON has neither; clamp to null is the caller's business, here we
/// print 0 to keep files loadable).
std::string renderNumber(double N) {
  if (!std::isfinite(N))
    return "0";
  if (N == static_cast<double>(static_cast<long long>(N)) &&
      std::fabs(N) < 1e15)
    return formatString("%lld", static_cast<long long>(N));
  return formatString("%.17g", N);
}

} // namespace

void Value::writeIndented(std::ostream &OS, unsigned Indent) const {
  std::string Pad(Indent * 2, ' ');
  std::string PadIn((Indent + 1) * 2, ' ');
  switch (K) {
  case Kind::Null:
    OS << "null";
    return;
  case Kind::Bool:
    OS << (B ? "true" : "false");
    return;
  case Kind::Number:
    OS << renderNumber(Num);
    return;
  case Kind::String:
    OS << '"' << escapeString(Str) << '"';
    return;
  case Kind::Array: {
    if (Arr.empty()) {
      OS << "[]";
      return;
    }
    OS << "[\n";
    for (size_t I = 0; I < Arr.size(); ++I) {
      OS << PadIn;
      Arr[I].writeIndented(OS, Indent + 1);
      OS << (I + 1 < Arr.size() ? ",\n" : "\n");
    }
    OS << Pad << ']';
    return;
  }
  case Kind::Object: {
    if (Obj.empty()) {
      OS << "{}";
      return;
    }
    OS << "{\n";
    for (size_t I = 0; I < Obj.size(); ++I) {
      OS << PadIn << '"' << escapeString(Obj[I].first) << "\": ";
      Obj[I].second.writeIndented(OS, Indent + 1);
      OS << (I + 1 < Obj.size() ? ",\n" : "\n");
    }
    OS << Pad << '}';
    return;
  }
  }
}

void Value::write(std::ostream &OS) const { writeIndented(OS, 0); }

std::string Value::str() const {
  std::ostringstream OS;
  write(OS);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace {

struct Parser {
  const std::string &Text;
  size_t Pos = 0;
  unsigned Depth = 0; ///< arrays and objects currently open
  std::string Error;

  explicit Parser(const std::string &Text) : Text(Text) {}

  bool fail(const std::string &Msg) {
    if (Error.empty())
      Error = formatString("offset %zu: ", Pos) + Msg;
    return false;
  }

  void skipWs() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos >= Text.size() || Text[Pos] != C)
      return fail(formatString("expected '%c'", C));
    ++Pos;
    return true;
  }

  bool parseValue(Value &Out) {
    skipWs();
    if (Pos >= Text.size())
      return fail("unexpected end of input");
    char C = Text[Pos];
    if (C == '{' || C == '[') {
      // The parser (and Value's destructor) recurse once per level.
      if (Depth == MaxNestingDepth)
        return fail(formatString("nesting deeper than %u levels",
                                 MaxNestingDepth));
      ++Depth;
      bool Ok = C == '{' ? parseObject(Out) : parseArray(Out);
      --Depth;
      return Ok;
    }
    if (C == '"') {
      std::string S;
      if (!parseString(S))
        return false;
      Out = Value::str(std::move(S));
      return true;
    }
    if (Text.compare(Pos, 4, "true") == 0) {
      Pos += 4;
      Out = Value::boolean(true);
      return true;
    }
    if (Text.compare(Pos, 5, "false") == 0) {
      Pos += 5;
      Out = Value::boolean(false);
      return true;
    }
    if (Text.compare(Pos, 4, "null") == 0) {
      Pos += 4;
      Out = Value::null();
      return true;
    }
    return parseNumber(Out);
  }

  bool parseNumber(Value &Out) {
    size_t End = Pos;
    while (End < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[End])) ||
            Text[End] == '-' || Text[End] == '+' || Text[End] == '.' ||
            Text[End] == 'e' || Text[End] == 'E'))
      ++End;
    if (End == Pos)
      return fail("expected a value");
    char *Parsed = nullptr;
    std::string Num = Text.substr(Pos, End - Pos);
    double N = std::strtod(Num.c_str(), &Parsed);
    if (!Parsed || *Parsed != '\0')
      return fail("malformed number '" + Num + "'");
    Pos = End;
    Out = Value::number(N);
    return true;
  }

  bool parseString(std::string &Out) {
    if (!consume('"'))
      return false;
    Out.clear();
    while (Pos < Text.size()) {
      char C = Text[Pos++];
      if (C == '"')
        return true;
      if (C != '\\') {
        Out += C;
        continue;
      }
      if (Pos >= Text.size())
        return fail("unterminated escape");
      char E = Text[Pos++];
      switch (E) {
      case '"':
      case '\\':
      case '/':
        Out += E;
        break;
      case 'n':
        Out += '\n';
        break;
      case 't':
        Out += '\t';
        break;
      case 'r':
        Out += '\r';
        break;
      case 'b':
        Out += '\b';
        break;
      case 'f':
        Out += '\f';
        break;
      case 'u': {
        if (Pos + 4 > Text.size())
          return fail("truncated \\u escape");
        unsigned Code = 0;
        for (int I = 0; I < 4; ++I) {
          char H = Text[Pos++];
          Code <<= 4;
          if (H >= '0' && H <= '9')
            Code |= static_cast<unsigned>(H - '0');
          else if (H >= 'a' && H <= 'f')
            Code |= static_cast<unsigned>(H - 'a' + 10);
          else if (H >= 'A' && H <= 'F')
            Code |= static_cast<unsigned>(H - 'A' + 10);
          else
            return fail("bad \\u escape digit");
        }
        // ASCII only (all we ever emit); anything else round-trips as '?'.
        Out += Code < 0x80 ? static_cast<char>(Code) : '?';
        break;
      }
      default:
        return fail(formatString("unknown escape '\\%c'", E));
      }
    }
    return fail("unterminated string");
  }

  bool parseArray(Value &Out) {
    if (!consume('['))
      return false;
    Out = Value::array();
    skipWs();
    if (Pos < Text.size() && Text[Pos] == ']') {
      ++Pos;
      return true;
    }
    for (;;) {
      Value Item;
      if (!parseValue(Item))
        return false;
      Out.push(std::move(Item));
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated array");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == ']') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool parseObject(Value &Out) {
    if (!consume('{'))
      return false;
    Out = Value::object();
    skipWs();
    if (Pos < Text.size() && Text[Pos] == '}') {
      ++Pos;
      return true;
    }
    for (;;) {
      skipWs();
      std::string Key;
      if (!parseString(Key))
        return false;
      if (!consume(':'))
        return false;
      Value V;
      if (!parseValue(V))
        return false;
      Out.set(std::move(Key), std::move(V));
      skipWs();
      if (Pos >= Text.size())
        return fail("unterminated object");
      if (Text[Pos] == ',') {
        ++Pos;
        continue;
      }
      if (Text[Pos] == '}') {
        ++Pos;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }
};

} // namespace

std::optional<Value> json::parse(const std::string &Text, std::string *Error) {
  Parser P(Text);
  Value V;
  if (!P.parseValue(V)) {
    if (Error)
      *Error = P.Error;
    return std::nullopt;
  }
  P.skipWs();
  if (P.Pos != Text.size()) {
    if (Error)
      *Error = formatString("offset %zu: trailing garbage", P.Pos);
    return std::nullopt;
  }
  return V;
}
