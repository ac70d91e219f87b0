#include "cache/json.hpp"

#include <charconv>

#include "support/log.hpp"

namespace autocomm::cache {

// ---- constructors ------------------------------------------------------

Json
Json::null()
{
    return Json{};
}

Json
Json::boolean(bool v)
{
    Json j;
    j.type_ = Type::Bool;
    j.bool_ = v;
    return j;
}

Json
Json::number_literal(std::string literal)
{
    Json j;
    j.type_ = Type::Number;
    j.scalar_ = std::move(literal);
    return j;
}

Json
Json::number(double v)
{
    // %.17g round-trips every finite double exactly. JSON has no
    // inf/nan; none of the cached metrics can produce them, so reject
    // loudly rather than emit an unparsable token.
    if (v != v || v > 1.7976931348623157e308 || v < -1.7976931348623157e308)
        support::fatal("Json: non-finite number is not representable");
    return number_literal(support::strprintf("%.17g", v));
}

Json
Json::number(long long v)
{
    return number_literal(support::strprintf("%lld", v));
}

Json
Json::number(unsigned long long v)
{
    return number_literal(support::strprintf("%llu", v));
}

Json
Json::string(std::string v)
{
    Json j;
    j.type_ = Type::String;
    j.scalar_ = std::move(v);
    return j;
}

Json
Json::array()
{
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.type_ = Type::Object;
    return j;
}

// ---- inspection --------------------------------------------------------

// The conversions go through JsonReader, so a tree literal is checked
// against the same grammar and range rules as a value read in place: an
// out-of-range literal in a store line is corruption and must take the
// corrupt-entry path, not silently become ULLONG_MAX or inf.

double
Json::to_double() const
{
    JsonReader r(number_text());
    const double v = r.read_double();
    r.finish();
    return v;
}

long long
Json::to_int() const
{
    JsonReader r(number_text());
    const long long v = r.read_int();
    r.finish();
    return v;
}

unsigned long long
Json::to_uint() const
{
    JsonReader r(number_text());
    const unsigned long long v = r.read_uint();
    r.finish();
    return v;
}

const std::string&
Json::number_text() const
{
    if (type_ != Type::Number)
        support::fatal("Json: expected a number");
    return scalar_;
}

const std::string&
Json::to_string() const
{
    if (type_ != Type::String)
        support::fatal("Json: expected a string");
    return scalar_;
}

const std::vector<Json>&
Json::items() const
{
    if (type_ != Type::Array)
        support::fatal("Json: expected an array");
    return items_;
}

void
Json::push_back(Json v)
{
    if (type_ != Type::Array)
        support::fatal("Json: push_back on a non-array");
    items_.push_back(std::move(v));
}

const std::vector<std::pair<std::string, Json>>&
Json::members() const
{
    if (type_ != Type::Object)
        support::fatal("Json: expected an object");
    return members_;
}

const Json*
Json::find(const std::string& key) const
{
    if (type_ != Type::Object)
        support::fatal("Json: expected an object");
    for (const auto& [k, v] : members_)
        if (k == key)
            return &v;
    return nullptr;
}

const Json&
Json::at(const std::string& key) const
{
    const Json* v = find(key);
    if (!v)
        support::fatal("Json: missing member \"%s\"", key.c_str());
    return *v;
}

void
Json::set(std::string key, Json v)
{
    if (type_ != Type::Object)
        support::fatal("Json: set on a non-object");
    members_.emplace_back(std::move(key), std::move(v));
}

// ---- dump --------------------------------------------------------------

namespace {

void
dump_string(const std::string& s, std::string& out)
{
    out += '"';
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (u < 0x20)
                out += support::strprintf("\\u%04x", u);
            else
                out += c;
        }
    }
    out += '"';
}

} // namespace

void
Json::dump_to(std::string& out) const
{
    switch (type_) {
    case Type::Null:
        out += "null";
        return;
    case Type::Bool:
        out += bool_ ? "true" : "false";
        return;
    case Type::Number:
        out += scalar_;
        return;
    case Type::String:
        dump_string(scalar_, out);
        return;
    case Type::Array:
        out += '[';
        for (std::size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += ',';
            items_[i].dump_to(out);
        }
        out += ']';
        return;
    case Type::Object:
        out += '{';
        for (std::size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out += ',';
            dump_string(members_[i].first, out);
            out += ':';
            members_[i].second.dump_to(out);
        }
        out += '}';
        return;
    }
}

std::string
Json::dump() const
{
    std::string out;
    dump_to(out);
    return out;
}

// ---- reader ------------------------------------------------------------

namespace {

/** Append code point @p cp as UTF-8. */
void
utf8(unsigned cp, std::string& out)
{
    if (cp < 0x80) {
        out += static_cast<char>(cp);
    } else if (cp < 0x800) {
        out += static_cast<char>(0xC0 | (cp >> 6));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
        out += static_cast<char>(0xE0 | (cp >> 12));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
        out += static_cast<char>(0xF0 | (cp >> 18));
        out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
        out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
        out += static_cast<char>(0x80 | (cp & 0x3F));
    }
}

/** Value of hex digit @p c, or -1. */
int
hex_digit(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

bool
is_digit(char c)
{
    return c >= '0' && c <= '9';
}

/** @p literal (grammar-checked) converted whole to T, or UserError. */
template <class T>
T
convert(std::string_view literal, const char* what)
{
    T v{};
    const char* last = literal.data() + literal.size();
    const auto [end, ec] = std::from_chars(literal.data(), last, v);
    if (ec != std::errc{} || end != last)
        support::fatal("Json: bad %s literal \"%.*s\"", what,
                       static_cast<int>(literal.size()), literal.data());
    return v;
}

} // namespace

void
JsonReader::fail(const char* what) const
{
    support::fatal("Json: %s at offset %zu", what, pos_);
}

void
JsonReader::skip_ws()
{
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r'))
        ++pos_;
}

void
JsonReader::expect(char c)
{
    if (!consume(c))
        support::fatal("Json: expected '%c' at offset %zu", c, pos_);
}

bool
JsonReader::consume(char c)
{
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
        ++pos_;
        return true;
    }
    return false;
}

bool
JsonReader::next_or_close(char close)
{
    if (consume(','))
        return true;
    if (consume(close))
        return false;
    support::fatal("Json: expected ',' or '%c' at offset %zu", close, pos_);
}

void
JsonReader::enter()
{
    if (++depth_ > kMaxDepth)
        fail("nesting too deep");
}

void
JsonReader::finish()
{
    skip_ws();
    if (pos_ != text_.size())
        fail("trailing garbage");
}

Json::Type
JsonReader::peek()
{
    skip_ws();
    if (pos_ >= text_.size())
        fail("unexpected end of input");
    switch (text_[pos_]) {
    case 'n': return Json::Type::Null;
    case 't':
    case 'f': return Json::Type::Bool;
    case '"': return Json::Type::String;
    case '[': return Json::Type::Array;
    case '{': return Json::Type::Object;
    default:
        if (text_[pos_] == '-' || is_digit(text_[pos_]))
            return Json::Type::Number;
        fail("unexpected character");
    }
}

void
JsonReader::read_null()
{
    skip_ws();
    if (text_.substr(pos_, 4) != "null")
        fail("expected null");
    pos_ += 4;
}

bool
JsonReader::read_bool()
{
    skip_ws();
    if (text_.substr(pos_, 4) == "true") {
        pos_ += 4;
        return true;
    }
    if (text_.substr(pos_, 5) == "false") {
        pos_ += 5;
        return false;
    }
    fail("expected a boolean");
}

std::string
JsonReader::read_string()
{
    expect('"');
    std::string out;
    const auto hex4 = [this] {
        unsigned v = 0;
        for (int i = 0; i < 4; ++i, ++pos_) {
            if (pos_ >= text_.size())
                fail("truncated \\u escape");
            const int d = hex_digit(text_[pos_]);
            if (d < 0)
                fail("bad \\u escape");
            v = (v << 4) | static_cast<unsigned>(d);
        }
        return v;
    };
    while (true) {
        const std::size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] != '"' &&
               text_[pos_] != '\\')
            ++pos_;
        out.append(text_, start, pos_ - start);
        if (pos_ >= text_.size())
            fail("unterminated string");
        if (text_[pos_++] == '"')
            return out;
        if (pos_ >= text_.size())
            fail("truncated escape");
        switch (text_[pos_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
            unsigned cp = hex4();
            if (cp >= 0xD800 && cp < 0xDC00) {
                // High surrogate: require the paired low surrogate.
                if (text_.substr(pos_, 2) != "\\u")
                    fail("lone high surrogate");
                pos_ += 2;
                const unsigned lo = hex4();
                if (lo < 0xDC00 || lo > 0xDFFF)
                    fail("bad low surrogate");
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
            } else if (cp >= 0xDC00 && cp < 0xE000) {
                fail("lone low surrogate");
            }
            utf8(cp, out);
            break;
        }
        default:
            --pos_;
            fail("unknown escape");
        }
    }
}

std::string_view
JsonReader::read_number()
{
    // RFC 8259: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
    skip_ws();
    const std::size_t start = pos_;
    const auto digits = [this] {
        const std::size_t from = pos_;
        while (pos_ < text_.size() && is_digit(text_[pos_]))
            ++pos_;
        return pos_ > from;
    };
    const auto at = [this](char c) {
        return pos_ < text_.size() && text_[pos_] == c;
    };
    if (at('-'))
        ++pos_;
    if (at('0'))
        ++pos_;
    else if (!digits())
        fail("bad number literal");
    if (at('.')) {
        ++pos_;
        if (!digits())
            fail("bad number literal");
    }
    if (at('e') || at('E')) {
        ++pos_;
        if (at('+') || at('-'))
            ++pos_;
        if (!digits())
            fail("bad number literal");
    }
    return text_.substr(start, pos_ - start);
}

double
JsonReader::read_double()
{
    return convert<double>(read_number(), "number");
}

long long
JsonReader::read_int()
{
    return convert<long long>(read_number(), "integer");
}

unsigned long long
JsonReader::read_uint()
{
    return convert<unsigned long long>(read_number(), "unsigned");
}

void
JsonReader::skip()
{
    switch (peek()) {
    case Json::Type::Null: read_null(); return;
    case Json::Type::Bool: read_bool(); return;
    case Json::Type::Number: read_number(); return;
    case Json::Type::String: read_string(); return;
    case Json::Type::Array: read_array([this] { skip(); }); return;
    case Json::Type::Object:
        read_object([this](std::string_view) { skip(); });
        return;
    }
}

std::string_view
JsonReader::raw()
{
    skip_ws();
    const std::size_t start = pos_;
    skip();
    return text_.substr(start, pos_ - start);
}

// ---- parse -------------------------------------------------------------

namespace {

Json
build(JsonReader& r)
{
    switch (r.peek()) {
    case Json::Type::Null:
        r.read_null();
        return Json::null();
    case Json::Type::Bool:
        return Json::boolean(r.read_bool());
    case Json::Type::Number:
        return Json::number_literal(std::string(r.read_number()));
    case Json::Type::String:
        return Json::string(r.read_string());
    case Json::Type::Array: {
        Json arr = Json::array();
        r.read_array([&] { arr.push_back(build(r)); });
        return arr;
    }
    case Json::Type::Object: {
        Json obj = Json::object();
        r.read_object([&](std::string_view key) {
            std::string k(key);
            obj.set(std::move(k), build(r));
        });
        return obj;
    }
    }
    return Json{};
}

} // namespace

std::optional<Json>
Json::parse(std::string_view text, std::string* error)
{
    try {
        JsonReader r(text);
        Json doc = build(r);
        r.finish();
        return doc;
    } catch (const support::UserError& e) {
        if (error)
            *error = e.what();
        return std::nullopt;
    }
}

} // namespace autocomm::cache
