// The paper's running example (§1): a university OODB.
//
//   Course  [name, category, teacher]
//   Student [name, courses: set<Course>, hobbies: set<string>]
//
// Reproduces both motivating queries:
//   Q-A  "find all students who take ALL of the lectures in the DB
//         category"            -> Student.courses ⊇ OID-list   (T ⊇ Q)
//   Q-B  "find all students who take ONLY lectures in the DB category"
//                               -> Student.courses ⊆ OID-list   (T ⊆ Q)
//
// The set elements here are Course OIDs: the access facility indexes the
// `courses` set attribute directly over OID values.

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "nix/nested_index.h"
#include "obj/multi_object_store.h"
#include "obj/schema.h"
#include "query/executor.h"
#include "sig/bssf.h"
#include "storage/storage_manager.h"
#include "util/rng.h"

namespace sigsetdb {
namespace {

struct Course {
  Oid oid;
  std::string name;
  std::string category;
};

struct Student {
  Oid oid;
  std::string name;
  ElementSet course_oids;  // set attribute, elements are Course OID values
};

int Fail(const Status& status);
void CheckOkOrDie(const Status& status);

int RunExample() {
  // --- schema (the paper's class definitions) ---
  Schema schema;
  CheckOkOrDie(schema.AddClass(
      ClassDef{"Course",
               {{"name", AttributeKind::kString, ""},
                {"category", AttributeKind::kString, ""},
                {"teacher", AttributeKind::kRef, "Teacher"}}}));
  CheckOkOrDie(schema.AddClass(
      ClassDef{"Student",
               {{"name", AttributeKind::kString, ""},
                {"courses", AttributeKind::kSetOfRef, "Course"},
                {"hobbies", AttributeKind::kSetOfString, ""}}}));

  StorageManager storage;
  MultiObjectStore course_store(storage.CreateOrOpen("courses"), 1);
  MultiObjectStore student_store(storage.CreateOrOpen("students"), 1);

  // --- populate Courses (8 of them, 3 in the DB category) ---
  const char* kCourseNames[] = {"DB Theory",  "DB Systems",  "Datalog",
                                "Compilers",  "Graphics",    "Networks",
                                "OS",         "AI"};
  const char* kCategories[] = {"DB", "DB", "DB", "PL", "Media",
                               "Sys", "Sys", "AI"};
  std::vector<Course> courses;
  for (int i = 0; i < 8; ++i) {
    Course c;
    c.name = kCourseNames[i];
    c.category = kCategories[i];
    // Course objects carry no set attribute; store an empty set.
    auto oid = course_store.Insert({ElementSet{}});
    if (!oid.ok()) return Fail(oid.status());
    c.oid = *oid;
    courses.push_back(c);
  }

  // --- populate Students ---
  struct Enrolment {
    const char* name;
    std::vector<int> course_idx;
  };
  const Enrolment kStudents[] = {
      {"Jeff", {0, 1, 2}},        // all three DB courses, nothing else
      {"Aiko", {0, 1, 2, 3}},     // all DB courses + Compilers
      {"Maria", {0, 2}},          // only DB courses, but not all of them
      {"Chen", {3, 4}},           // no DB courses
      {"Tom", {1, 2}},            // only DB courses
      {"Rika", {0, 1, 2, 7}},     // all DB courses + AI
  };

  // Access facility on the path Student.courses: a BSSF with a small m,
  // the paper's recommended configuration.
  auto bssf = BitSlicedSignatureFile::Create(
      SignatureConfig{128, 2}, 1024, storage.CreateOrOpen("courses.slices"),
      storage.CreateOrOpen("courses.oid"), BssfInsertMode::kSparse);
  if (!bssf.ok()) return Fail(bssf.status());
  // The baseline facility, for comparison.
  auto nix = NestedIndex::Create(storage.CreateOrOpen("courses.nix"));
  if (!nix.ok()) return Fail(nix.status());

  std::vector<Student> students;
  for (const Enrolment& e : kStudents) {
    Student s;
    s.name = e.name;
    for (int idx : e.course_idx) {
      s.course_oids.push_back(
          ElementDictionary::IdForOid(courses[idx].oid));
    }
    NormalizeSet(&s.course_oids);
    auto oid = student_store.Insert({s.course_oids});
    if (!oid.ok()) return Fail(oid.status());
    s.oid = *oid;
    if (auto st = (*bssf)->Insert(s.oid, s.course_oids); !st.ok()) {
      return Fail(st);
    }
    if (auto st = (*nix)->Insert(s.oid, s.course_oids); !st.ok()) {
      return Fail(st);
    }
    students.push_back(s);
  }
  std::map<Oid, std::string> names;
  for (const Student& s : students) names[s.oid] = s.name;

  // --- step 1 of the paper's query plan: evaluate Course.category = "DB"
  //     into OID-list (a plain scan over the Course extent) ---
  ElementSet db_oid_list;
  for (const Course& c : courses) {
    if (c.category == "DB") {
      db_oid_list.push_back(ElementDictionary::IdForOid(c.oid));
    }
  }
  NormalizeSet(&db_oid_list);
  std::printf("OID-list for category \"DB\": %zu courses\n",
              db_oid_list.size());

  // --- Q-A: Student.courses ⊇ OID-list ---
  for (SetAccessFacility* facility :
       {static_cast<SetAccessFacility*>(bssf->get()),
        static_cast<SetAccessFacility*>(nix->get())}) {
    storage.ResetStats();
    auto result = ExecuteSetQuery(facility, student_store,
                                  QueryKind::kSuperset, db_oid_list);
    if (!result.ok()) return Fail(result.status());
    std::printf("\n[%s] students taking ALL DB lectures (expect Jeff, "
                "Aiko, Rika):\n",
                facility->name().c_str());
    for (Oid oid : result->oids) {
      std::printf("  %s\n", names[oid].c_str());
    }
    std::printf("  (%llu page accesses, %llu false drops)\n",
                static_cast<unsigned long long>(
                    storage.TotalStats().total()),
                static_cast<unsigned long long>(result->num_false_drops));
  }

  // --- Q-B: Student.courses ⊆ OID-list ---
  for (SetAccessFacility* facility :
       {static_cast<SetAccessFacility*>(bssf->get()),
        static_cast<SetAccessFacility*>(nix->get())}) {
    storage.ResetStats();
    auto result = ExecuteSetQuery(facility, student_store,
                                  QueryKind::kSubset, db_oid_list);
    if (!result.ok()) return Fail(result.status());
    std::printf("\n[%s] students taking ONLY DB lectures (expect Jeff, "
                "Maria, Tom):\n",
                facility->name().c_str());
    for (Oid oid : result->oids) {
      std::printf("  %s\n", names[oid].c_str());
    }
    std::printf("  (%llu page accesses, %llu false drops)\n",
                static_cast<unsigned long long>(
                    storage.TotalStats().total()),
                static_cast<unsigned long long>(result->num_false_drops));
  }
  return 0;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

void CheckOkOrDie(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "fatal: %s\n", status.ToString().c_str());
    std::abort();
  }
}

}  // namespace
}  // namespace sigsetdb

int main() { return sigsetdb::RunExample(); }
